"""Small statistics helpers shared by the workloads and their tests."""

from __future__ import annotations

import math
import time
from typing import Callable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-th percentile of *values* and the samples above it.

    The second item is how many samples rank strictly beyond the returned
    one, so a reader can tell whether a tail percentile rests on enough
    samples (ten or more) to be steady.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (each value weighs the same)."""
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: What :func:`host_probe` takes on the reference host, in seconds.
REFERENCE_PROBE_S = 0.025


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    return time.perf_counter() - started


class HostSpeed:
    """How fast the shared host ran during one benchmark run.

    The host's speed drifts by tens of percent over tens of seconds, so
    runs of identical work land in fast or slow phases.  Probing it
    before every timed call and scaling the run's times by
    ``REFERENCE_PROBE_S / mean(probes)`` gives seconds on a host where
    the probe takes the reference time.  A single probe is too noisy to
    correct a single call; the mean over a run tracks the run's phase.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def probe(self) -> None:
        self.probes.append(host_probe())

    @property
    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return REFERENCE_PROBE_S * len(self.probes) / sum(self.probes)


def timed_call(call: Callable[[], object], speed: HostSpeed
               ) -> Tuple[object, float, float]:
    """Probe the host, then run *call*; return its result, wall seconds
    and process CPU seconds."""
    speed.probe()
    started, cpu = time.perf_counter(), time.process_time()
    result = call()
    return (result, time.perf_counter() - started,
            time.process_time() - cpu)
