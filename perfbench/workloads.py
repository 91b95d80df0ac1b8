"""The benchmark's three workloads and the checks on their outputs.

Each workload sets up from ``--seed`` alone, repeats its calls while the
next repeat fits in ``--seconds`` (at least once) and checks every
answer it got:

* ``plan`` — model only: 15 ``plan_deployment`` queries and a ``predict``
  sweep, one caller issuing calls back to back (closed loop);
* ``sim`` — the DES only: three ``simulate`` calls (read path, global
  write path, sharded write path), 40 emulated clients per replica in
  virtual time (closed loop);
* ``live`` — ``run_cluster`` on tpcw/shopping, two replicas, 40 client
  threads per replica with think time (closed loop).

Every run reports the same six end-to-end metrics (``END_TO_END``); what
each one counts on each workload is written next to its computation and
in ``DESIGN.md``.  A traced run adds the per-layer metrics
(``PER_LAYER``) read from the spans of :mod:`perfbench.tracing`.
"""

from __future__ import annotations

import gc
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .stats import HostSpeed, geomean, percentile, timed_call
from .tracing import Tracer, self_times

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: End-to-end metrics every run reports with tracing off: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answer_s": "s",
    "ops_per_s": "1/s",
    "latency_ms": "ms",
    "cpu_us_per_op": "us",
}

# -- plan -------------------------------------------------------------------
#: Targets as multiples of the one-replica multi-master prediction.
PLAN_MULTIPLES = (2, 4, 8)
PLAN_HEADROOM = 0.1
#: The paper's largest replica count.
PLAN_MAX_REPLICAS = 16

# -- sim --------------------------------------------------------------------
SIM_REPLICAS = 8
SIM_WARMUP = 5.0
SIM_DURATION = 25.0
SIM_PATHS = ("read", "write", "sharded")

# -- live -------------------------------------------------------------------
LIVE_WORKLOAD = "tpcw/shopping"
LIVE_REPLICAS = 2
#: Virtual seconds; the run length stays fixed because the live
#: replication lag grows with it.
LIVE_WARMUP = 10.0
LIVE_DURATION = 100.0
TIME_SCALE = 0.1


@dataclass
class Measured:
    """What one measurement pass produced."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One result digest per deterministic call, which the traced and
    #: untraced passes must share.
    digests: Dict[str, str] = field(default_factory=dict)


def _clear_memos() -> None:
    """Drop the program's in-process profile and sweep-point memos."""
    from repro.engine import clear_memo
    from repro.experiments.context import clear_cache

    clear_cache()
    clear_memo()


def _deadline_loop(budget: float, call: Callable[[], float]) -> None:
    """Run *call* (which returns its own duration) at least once and again
    while the next one is expected to end within *budget* seconds."""
    spent = 0.0
    while True:
        last = call()
        spent += last
        if spent + last > budget:
            return


class _CallCounter:
    """Counts calls to ``module.attr`` while the block runs."""

    def __init__(self, module, attr: str) -> None:
        self.module, self.attr, self.calls = module, attr, 0

    def __enter__(self):
        original = self._original = getattr(self.module, self.attr)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self._original)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def check_plan_answer(answer, required: float,
                      throughput_at: Callable[[str, int], float],
                      designs: Sequence[str],
                      replica_counts: Sequence[int]) -> List[str]:
    """Problems with one ``plan_deployment`` answer (empty when right).

    *throughput_at(design, n)* re-predicts independently of the planner.
    An answer must meet *required* at its N with its design, and no
    design may meet it at N-1.  ``None`` (unreachable) requires that no
    design meets it at any of *replica_counts*.
    """
    problems = []
    if answer is None:
        for design in designs:
            for n in replica_counts:
                if throughput_at(design, n) >= required:
                    problems.append(f"unreachable, yet {design} meets the "
                                    f"target at N={n}")
        return problems
    n = answer.replicas
    if throughput_at(answer.design, n) < required:
        problems.append(f"{answer.design} misses the target at N={n}")
    if n > 1:
        for design in designs:
            if throughput_at(design, n - 1) >= required:
                problems.append(f"{design} already meets the target at "
                                f"N={n - 1}")
    return problems


#: What a plan query returns when the model raised ConvergenceError.
_DIVERGED = object()


class PlanWorkload:
    name = "plan"
    #: End-to-end metric compared between traced and untraced passes.
    overhead_metric = "answer_s"
    #: Metrics reported in reference seconds (see HostSpeed).
    host_bound = ("setup_s", "answer_s", "ops_per_s", "latency_ms",
                  "cpu_us_per_op")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        from repro.models import api
        from repro.profiling import profiler
        from repro.workloads import all_workloads

        cases = []
        for name, spec in sorted(all_workloads().items()):
            profile = profiler.profile_standalone(spec, seed=self.seed).profile
            config = spec.replication_config(1)
            base = api.predict(api.MULTI_MASTER, profile, config).throughput
            cases.append((name, profile, config, base))
        return cases

    def measure(self, cases, seconds: float, tracer: Optional[Tracer],
                speed: HostSpeed) -> Measured:
        from repro.core.errors import ConvergenceError
        from repro.experiments.settings import PAPER_REPLICA_COUNTS
        from repro.models import api, planning

        out = Measured()
        queries = []
        swept: Dict[Tuple[str, str, int], Optional[float]] = {}
        sweep = {"s": 0.0, "cpu": 0.0, "n": 0}

        def throughput(name, profile, config, design, n) -> Optional[float]:
            """The sweep's prediction; None when the model diverges."""
            try:
                value = api.predict(design, profile,
                                    config.with_replicas(n)).throughput
            except ConvergenceError:
                out.failed += 1
                value = None
            swept[name, design, n] = value
            return value

        def sweep_group(name, profile, config, design) -> float:
            _, wall, cpu = timed_call(lambda: [
                throughput(name, profile, config, design, n)
                for n in PAPER_REPLICA_COUNTS
            ], speed)
            sweep["n"] += len(PAPER_REPLICA_COUNTS)
            sweep["s"] += wall
            sweep["cpu"] += cpu
            return wall

        def plan(profile, config, target):
            try:
                return planning.plan_deployment(
                    profile, config, target,
                    headroom=PLAN_HEADROOM, max_replicas=PLAN_MAX_REPLICAS,
                )
            except ConvergenceError:
                return _DIVERGED

        # Each workload's sweep runs right after its three queries, so the
        # sweep's timings spread over the run as the queries' do and the
        # host's slow phases weigh on both alike.
        spent = plan_cpu = 0.0
        with _CallCounter(planning, "predict") as planner_predicts:
            for name, profile, config, base in cases:
                for multiple in PLAN_MULTIPLES:
                    answer, wall, cpu = timed_call(
                        lambda: plan(profile, config, multiple * base), speed)
                    queries.append((name, multiple * base, answer, wall))
                    spent += wall
                    plan_cpu += cpu
                for design in api.DESIGNS:
                    spent += sweep_group(name, profile, config, design)
        plan_s = sum(q[3] for q in queries)
        sweep_pass = sweep["s"]
        while spent + sweep_pass <= seconds:
            sweep_pass = sum(sweep_group(name, profile, config, design)
                             for name, profile, config, _ in cases
                             for design in api.DESIGNS)
            spent += sweep_pass

        by_name = {case[0]: case for case in cases}
        for name, required, answer, _ in queries:
            _, profile, config, _ = by_name[name]

            def throughput_at(design, n, name=name, profile=profile,
                              config=config):
                if (name, design, n) not in swept:
                    throughput(name, profile, config, design, n)
                value = swept[name, design, n]
                if value is None:
                    raise ConvergenceError(f"{name} {design} N={n}")
                return value

            try:
                wrong = answer is _DIVERGED or check_plan_answer(
                    answer, required / (1.0 - PLAN_HEADROOM), throughput_at,
                    api.DESIGNS, PAPER_REPLICA_COUNTS)
            except ConvergenceError:
                wrong = True
            out.failed += bool(wrong)
        out.attempted = len(queries) + sweep["n"]
        predictions = planner_predicts.calls + sweep["n"]
        out.e2e = {
            # plan_s: summed wall time of the 15 plan queries.
            "answer_s": plan_s,
            # Predictions per host second, the planner's and the sweep's.
            "ops_per_s": predictions / (plan_s + sweep["s"]),
            # Geometric mean of the query times: each query weighs the
            # same, though they range from milliseconds to seconds.
            "latency_ms": geomean([q[3] for q in queries]) * 1000.0,
            "cpu_us_per_op": (plan_cpu + sweep["cpu"]) / predictions * 1e6,
        }
        if tracer is not None:
            plans = tracer.named("models.plan_deployment")
            inside = sum(1 for span in tracer.named("models.predict")
                         if span.parent is not None
                         and span.parent.name == "models.plan_deployment")
            durations = [span.duration * 1000.0 for span in plans]
            out.layer.update({
                "models.plan_deployment.predicts_per_query":
                    inside / len(plans),
                "models.plan_deployment.p50_ms": percentile(durations, 50)[0],
                "models.plan_deployment.max_ms": max(durations),
            })
        return out


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

class SimWorkload:
    name = "sim"
    overhead_metric = "answer_s"
    host_bound = PlanWorkload.host_bound

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        from repro.partition.scenarios import (
            CERT_DELAY,
            CERT_FLEET,
            CERT_SERVICE_SIM,
            certifier_workload,
        )
        from repro.profiling import profiler
        from repro.sidb.certifier_api import CertifierSpec
        from repro.simulator.systems import PARTITION_AWARE
        from repro.workloads import get_workload

        browsing = get_workload("tpcw/browsing")
        ordering = get_workload("tpcw/ordering")
        sharded = certifier_workload()
        spec_sharded = CertifierSpec("sharded", service_time=CERT_SERVICE_SIM)
        cells = [
            ("read", browsing, browsing.replication_config(SIM_REPLICAS),
             {}, {}),
            ("write", ordering, ordering.replication_config(SIM_REPLICAS),
             {}, {}),
            # The certifier-sharding scenario's sim-sharded cell.
            ("sharded", sharded,
             sharded.replication_config(CERT_FLEET,
                                        certifier_delay=CERT_DELAY),
             {"lb_policy": PARTITION_AWARE, "certifier": spec_sharded},
             {"certifier": spec_sharded,
              "cross_partition_fraction": sharded.cross_partition_fraction,
              "partition_weights": sharded.partition_weights,
              "partitions": sharded.partitions}),
        ]
        profiles = {path: profiler.profile_standalone(spec, seed=self.seed)
                    .profile for path, spec, *_ in cells}
        return cells, profiles

    def measure(self, state, seconds: float, tracer: Optional[Tracer],
                speed: HostSpeed) -> Measured:
        from repro.models import api
        from repro.simulator import runner

        cells, profiles = state
        out = Measured()
        host: Dict[str, List[float]] = {path: [] for path, *_ in cells}
        digests: Dict[str, List[str]] = {path: [] for path in host}
        first = {}
        events: Dict[str, float] = {}
        cpu = commits = 0.0

        def one_cycle() -> float:
            # One call per path in turn, so each path's repeats spread
            # over the run instead of sharing one phase of the host.
            nonlocal cpu, commits
            cycle = 0.0
            for path, spec, config, options, _ in cells:
                before = tracer.counts["simulator.events"] if tracer else 0
                result, wall, used = timed_call(lambda: runner.simulate(
                    spec, config, seed=self.seed, warmup=SIM_WARMUP,
                    duration=SIM_DURATION, **options,
                ), speed)
                host[path].append(wall)
                cpu += used
                commits += result.committed_transactions
                digests[path].append(repr(result))
                first.setdefault(path, result)
                if tracer is not None:
                    events[path] = tracer.counts["simulator.events"] - before
                cycle += wall
            return cycle

        _deadline_loop(seconds, one_cycle)
        for path, seen in digests.items():
            # The DES is deterministic: every repeat must match the first.
            out.attempted += len(seen)
            out.failed += sum(1 for d in seen[1:] if d != seen[0])
            out.digests[path] = seen[0]

        rates = {path: first[path].committed_transactions
                 / median(host[path]) for path in host}
        out.e2e = {
            # Summed host seconds of the three simulate calls.
            "answer_s": sum(median(calls) for calls in host.values()),
            # Simulated commits per host second: geometric mean over the
            # three paths, so each path weighs the same.
            "ops_per_s": geomean(list(rates.values())),
            # Geometric mean over the paths of one call's median time.
            "latency_ms": geomean([median(calls)
                                   for calls in host.values()]) * 1000.0,
            "cpu_us_per_op": cpu / commits * 1e6,
        }
        for path, rate in rates.items():
            out.layer[f"sim.commits_per_s.{path}"] = rate
        deviations = []
        for path, spec, config, _, model_options in cells:
            model = api.predict(api.MULTI_MASTER, profiles[path], config,
                                **model_options).throughput
            simulated = first[path].throughput
            deviations.append(abs(model - simulated) / simulated)
        out.layer["sim.model_dev_pct"] = (
            100.0 * sum(deviations) / len(deviations))
        if tracer is not None:
            for path in host:
                count = events[path]
                out.layer[f"simulator.events.{path}"] = count
                out.layer[f"simulator.events_per_commit.{path}"] = (
                    count / first[path].committed_transactions)
                out.layer[f"simulator.host_us_per_event.{path}"] = (
                    host[path][-1] / count * 1e6)
        return out


# ---------------------------------------------------------------------------
# live
# ---------------------------------------------------------------------------

class _ExecuteTimer:
    """Times every call into ``MultiMasterCluster.execute``.

    Installed in untraced runs too: the response-time percentiles are
    end-to-end metrics, and the cluster records only means.
    """

    def __init__(self) -> None:
        #: (start, duration, is_update) per finished call, wall seconds.
        self.samples: List[Tuple[float, float, bool]] = []

    def __enter__(self):
        from repro.cluster.cluster import MultiMasterCluster

        original = self._original = vars(MultiMasterCluster)["execute"]
        samples = self.samples

        def execute(cluster, sampler, is_update, client_id):
            started = time.perf_counter()
            aborts = original(cluster, sampler, is_update, client_id)
            samples.append((started, time.perf_counter() - started,
                            is_update))
            return aborts

        MultiMasterCluster.execute = execute
        return self

    def __exit__(self, *exc) -> None:
        from repro.cluster.cluster import MultiMasterCluster

        MultiMasterCluster.execute = self._original


def live_converged(result) -> bool:
    """Every replica installed exactly the certified commits."""
    committed = (result.total_certifications
                 - result.total_certification_aborts)
    return (result.state_converged
            and all(v == committed for v in result.final_versions))


class LiveWorkload:
    name = "live"
    # Run length is fixed in virtual time, so tracing shows as CPU.
    overhead_metric = "cpu_us_per_op"
    # The other metrics are virtual time or a fixed run length.
    host_bound = ("setup_s", "cpu_us_per_op")

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _point(self):
        from repro.workloads import get_workload

        spec = get_workload(LIVE_WORKLOAD)
        return spec, spec.replication_config(LIVE_REPLICAS)

    def setup(self):
        # The simulator's answer on the same point: the reference the
        # live pillar is compared with.
        from repro.simulator import runner

        spec, config = self._point()
        return runner.simulate(spec, config, seed=self.seed,
                               warmup=LIVE_WARMUP, duration=LIVE_DURATION)

    def measure(self, reference, seconds: float, tracer: Optional[Tracer],
                speed: HostSpeed) -> Measured:
        from repro.cluster import runner

        spec, config = self._point()
        out = Measured()
        runs = []
        window: List[Tuple[float, bool]] = []
        started = 0.0

        def attempt():
            nonlocal started
            started = time.perf_counter()
            try:
                return runner.run_cluster(
                    spec, config, seed=self.seed, warmup=LIVE_WARMUP,
                    duration=LIVE_DURATION, time_scale=TIME_SCALE,
                )
            except Exception:  # noqa: BLE001 — a failed operation
                traceback.print_exc(file=sys.stderr)
                return None

        def one_run() -> float:
            with _ExecuteTimer() as executed:
                result, wall, cpu = timed_call(attempt, speed)
            calls = len(executed.samples)
            out.attempted += calls
            if result is None or not live_converged(result):
                out.failed += max(1, calls)
                return wall
            lo = started + LIVE_WARMUP * TIME_SCALE
            hi = lo + LIVE_DURATION * TIME_SCALE
            window.extend((duration / TIME_SCALE, is_update)
                          for start, duration, is_update in executed.samples
                          if start >= lo and start + duration <= hi)
            runs.append((result, wall, cpu / calls))
            return wall

        _deadline_loop(seconds, one_run)
        if not runs:
            return out
        latencies = [v for v, _ in window]
        throughput = median([r.throughput for r, _, _ in runs])
        response = median([r.response_time for r, _, _ in runs])
        out.e2e = {
            # Wall seconds of one run_cluster call (fixed length, plus
            # drain and quiesce).
            "answer_s": median([s for _, s, _ in runs]),
            # Committed transactions per virtual second.
            "ops_per_s": throughput,
            # Median response time of execute, in virtual ms.
            "latency_ms": percentile(latencies, 50)[0] * 1000.0,
            # Process CPU per committed transaction.
            "cpu_us_per_op": median([c for _, _, c in runs]) * 1e6,
        }
        out.layer.update({
            "live.abort_pct": 100.0 * median([r.abort_rate
                                              for r, _, _ in runs]),
            "live.snapshot_age": median([r.mean_snapshot_age
                                         for r, _, _ in runs]),
            "live.vs_sim.tput_dev_pct": 100.0 * abs(
                throughput - reference.throughput) / reference.throughput,
            "live.vs_sim.rt_dev_pct": 100.0 * abs(
                response - reference.response_time) / reference.response_time,
        })
        for kind, is_update in (("read", False), ("update", True)):
            samples = [v for v, u in window if u is is_update]
            if samples:
                p99, beyond = percentile(samples, 99)
                out.layer[f"cluster.execute.{kind}.p50_ms"] = (
                    percentile(samples, 50)[0] * 1000.0)
                out.layer[f"cluster.execute.{kind}.p99_ms"] = p99 * 1000.0
                out.layer[f"cluster.execute.{kind}.p99_beyond"] = beyond
        return out


WORKLOADS = {w.name: w for w in (PlanWorkload, SimWorkload, LiveWorkload)}


# ---------------------------------------------------------------------------
# tracing: which calls become spans, and the per-layer metrics from them
# ---------------------------------------------------------------------------

def _count_events(tracer: Tracer, span, args, result) -> None:
    env = args[0]
    # Each simulate call drives one fresh Environment to its end once, so
    # its sequence number is the number of events it scheduled.
    tracer.add("simulator.events", env._sequence)


def _certify_outcome(kind: str):
    def hook(tracer: Tracer, span, args, result) -> None:
        if result is not None and result.committed:
            tracer.add(f"sidb.certify.{kind}.committed")
    return hook


def _classify_serve(tracer: Tracer, span, args, result) -> None:
    resource_, demand = args[0], args[1]
    kind = ("applier" if threading.current_thread().name.endswith("-applier")
            else "client")
    span.name = f"cluster.resource.{kind}.serve"
    service = demand / resource_.rate * resource_._clock.time_scale
    tracer.add(f"cluster.resource.{kind}.service_s", service)


def _note_backlog(tracer: Tracer, span, args, result) -> None:
    tracer.peak("cluster.apply.backlog_peak", args[0].apply_backlog)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer."""
    from repro.cluster.channel import ReplicationChannel
    from repro.cluster.replica import ClusterReplica
    from repro.cluster.resources import LiveResource
    from repro.models import api, planning
    from repro.profiling import profiler
    from repro.queueing import mva
    from repro.sidb.certifier import GlobalCertifier
    from repro.sidb.engine import SIDatabase
    from repro.sidb.sharded import ShardedCertifier
    from repro.simulator import runner
    from repro.simulator.des import Environment

    tracer.wrap_function("queueing.solve_mva_multiclass",
                         mva.solve_mva_multiclass)
    tracer.wrap_function("queueing.solve_mva", mva.solve_mva)
    tracer.wrap_function("models.predict", api.predict)
    tracer.wrap_function("models.plan_deployment", planning.plan_deployment)
    tracer.wrap_function("profiling.profile_standalone",
                         profiler.profile_standalone)
    tracer.wrap_function("simulator.simulate", runner.simulate)
    tracer.wrap_method("simulator.run_until", Environment, "run_until",
                       _count_events)
    tracer.wrap_method("sidb.certify.global", GlobalCertifier, "certify",
                       _certify_outcome("global"))
    tracer.wrap_method("sidb.certify.sharded", ShardedCertifier, "certify",
                       _certify_outcome("sharded"))
    tracer.wrap_method("sidb.begin", SIDatabase, "begin")
    # The replicated path finishes a certified transaction with
    # finish_remote; the standalone path with commit.
    tracer.wrap_method("sidb.commit", SIDatabase, "commit")
    tracer.wrap_method("sidb.commit", SIDatabase, "finish_remote")
    tracer.wrap_method("sidb.apply_writeset", SIDatabase, "apply_writeset")
    tracer.wrap_method("cluster.channel.publish", ReplicationChannel,
                       "publish")
    tracer.wrap_method("cluster.resource.serve", LiveResource, "serve",
                       _classify_serve)
    tracer.wrap_method("cluster.apply.enqueue", ClusterReplica,
                       "enqueue_writeset", _note_backlog)


#: Per-layer metrics a traced run reports: name -> unit.  Metrics of a
#: layer the workload does not reach read 0.
PER_LAYER = {
    "queueing.solve_mva_multiclass.calls": "count",
    "queueing.solve_mva_multiclass.self_s": "s",
    "queueing.solve_mva.calls": "count",
    "queueing.solve_mva.self_s": "s",
    "models.predict.calls": "count",
    "models.plan_deployment.predicts_per_query": "count",
    "models.plan_deployment.p50_ms": "ms",
    "models.plan_deployment.max_ms": "ms",
    "profiling.profile_standalone.s": "s",
    **{f"simulator.{m}.{p}": u for p in SIM_PATHS
       for m, u in (("events", "count"), ("events_per_commit", "count"),
                    ("host_us_per_event", "us"))},
    **{f"sim.commits_per_s.{p}": "1/s" for p in SIM_PATHS},
    "sim.model_dev_pct": "%",
    **{f"sidb.certify.{k}.{m}": u for k in ("global", "sharded")
       for m, u in (("calls", "count"), ("us_per_call", "us"),
                    ("commit_ratio", "ratio"))},
    "sidb.begin.us_per_call": "us",
    "sidb.commit.us_per_call": "us",
    "sidb.apply_writeset.us_per_call": "us",
    "cluster.channel.publish.calls": "count",
    "cluster.channel.publish.us_per_call": "us",
    "cluster.resource.client.wait_ms_per_serve": "ms",
    "cluster.resource.applier.wait_ms_per_serve": "ms",
    "cluster.apply.writesets": "count",
    "cluster.apply.backlog_peak": "count",
    **{f"cluster.execute.{k}.{m}": u for k in ("read", "update")
       for m, u in (("p50_ms", "ms"), ("p99_ms", "ms"),
                    ("p99_beyond", "count"))},
    "live.abort_pct": "%",
    "live.snapshot_age": "versions",
    "live.vs_sim.tput_dev_pct": "%",
    "live.vs_sim.rt_dev_pct": "%",
    "trace.overhead_pct": "%",
    "host.probe_ms": "ms",
}


def layer_metrics(tracer: Tracer, measured: Measured,
                  overhead_pct: float) -> Dict[str, float]:
    """Per-layer metrics from the traced pass's spans and counters."""
    spans: Dict[str, List] = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    own = self_times(tracer.spans)
    counts = tracer.counts

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    def us_per_call(name: str) -> float:
        found = spans.get(name, ())
        return (sum(s.duration for s in found) / len(found) * 1e6
                if found else 0.0)

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "queueing.solve_mva_multiclass.calls":
            calls("queueing.solve_mva_multiclass"),
        "queueing.solve_mva_multiclass.self_s":
            own.get("queueing.solve_mva_multiclass", 0.0),
        "queueing.solve_mva.calls": calls("queueing.solve_mva"),
        "queueing.solve_mva.self_s": own.get("queueing.solve_mva", 0.0),
        "models.predict.calls": calls("models.predict"),
        "profiling.profile_standalone.s": sum(
            s.duration for s in spans.get("profiling.profile_standalone", ())),
        "sidb.begin.us_per_call": us_per_call("sidb.begin"),
        "sidb.commit.us_per_call": us_per_call("sidb.commit"),
        "sidb.apply_writeset.us_per_call": us_per_call("sidb.apply_writeset"),
        "cluster.channel.publish.calls": calls("cluster.channel.publish"),
        "cluster.channel.publish.us_per_call":
            us_per_call("cluster.channel.publish"),
        "cluster.apply.writesets": calls("cluster.apply.enqueue"),
        "cluster.apply.backlog_peak": counts["cluster.apply.backlog_peak"],
        "trace.overhead_pct": overhead_pct,
    })
    for kind in ("global", "sharded"):
        name = f"sidb.certify.{kind}"
        n = calls(name)
        metrics[f"{name}.calls"] = n
        metrics[f"{name}.us_per_call"] = us_per_call(name)
        metrics[f"{name}.commit_ratio"] = (
            counts[f"{name}.committed"] / n if n else 0.0)
    for kind in ("client", "applier"):
        found = spans.get(f"cluster.resource.{kind}.serve", ())
        if found:
            waited = (sum(s.duration for s in found)
                      - counts[f"cluster.resource.{kind}.service_s"])
            # Wall seconds scaled to virtual milliseconds.
            metrics[f"cluster.resource.{kind}.wait_ms_per_serve"] = (
                waited / len(found) / TIME_SCALE * 1000.0)
    metrics.update(measured.layer)
    return metrics


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _setup(workload, speed: HostSpeed):
    """Set up SETUP_REPEATS times from cold memos; keep the last state."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        _clear_memos()
        gc.collect()
        state, wall, _ = timed_call(workload.setup, speed)
        times.append(wall)
    return state, median(times)


def _in_reference_seconds(workload, values: Dict[str, float],
                          speed: HostSpeed) -> Dict[str, float]:
    """Scale the host-bound metrics of one run by the host's speed."""
    speed.probe()
    scaled = dict(values)
    for key in workload.host_bound:
        if key in scaled:
            if END_TO_END[key].startswith("1/"):
                scaled[key] /= speed.scale
            else:
                scaled[key] *= speed.scale
    return scaled


def _measure(workload, state, seconds: float,
             tracer: Optional[Tracer]) -> Tuple[Measured, HostSpeed]:
    gc.collect()
    speed = HostSpeed()
    measured = workload.measure(state, seconds, tracer, speed)
    measured.e2e = _in_reference_seconds(workload, measured.e2e, speed)
    return measured, speed


def run(name: str, seed: int, seconds: float, trace: bool,
        trace_path=None) -> dict:
    """Run workload *name* once; return the result object to print."""
    workload = WORKLOADS[name](seed)
    if not trace:
        speed = HostSpeed()
        state, setup_s = _setup(workload, speed)
        setup_s = _in_reference_seconds(workload, {"setup_s": setup_s},
                                        speed)["setup_s"]
        measured, _ = _measure(workload, state, seconds, None)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = dict(measured.e2e, setup_s=setup_s, peak_rss_mb=peak_mb)
        units = END_TO_END
    else:
        tracer = Tracer()
        _clear_memos()
        install(tracer)
        try:
            state = workload.setup()
        finally:
            tracer.restore()
        untraced, speed = _measure(workload, state, seconds, None)
        # Keep only the set-up's profiling spans before the traced pass.
        tracer.spans = tracer.named("profiling.profile_standalone")
        tracer.counts.clear()
        install(tracer)
        try:
            measured, _ = _measure(workload, state, seconds, tracer)
        finally:
            tracer.restore()
        if trace_path is not None:
            tracer.write(trace_path)
        # Identical simulated results with tracing on and off.
        for key, digest in untraced.digests.items():
            measured.attempted += 1
            if measured.digests.get(key) != digest:
                measured.failed += 1
        measured.attempted += untraced.attempted
        measured.failed += untraced.failed
        overhead = 0.0
        key = workload.overhead_metric
        if untraced.e2e and measured.e2e:
            overhead = 100.0 * (measured.e2e[key] / untraced.e2e[key] - 1.0)
        values = layer_metrics(tracer, measured, overhead)
        # Metrics that need no spans come from the untraced pass.
        values.update(untraced.layer)
        values["host.probe_ms"] = (
            1000.0 * sum(speed.probes) / len(speed.probes))
        units = PER_LAYER
    failed = measured.failed
    complete = set(values) >= set(units)
    return {
        "correct": failed == 0 and complete,
        "attempted": max(1, measured.attempted),
        "failed": failed if complete else max(1, failed),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }
