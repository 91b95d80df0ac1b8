"""Spans and counters recorded around calls into the program's layers.

The tracer wraps public functions and methods of ``repro`` from outside:
it replaces the attribute (on every loaded ``repro`` module that binds
the same function, or on the class that defines the method) with a
wrapper that records one :class:`Span` per call, and puts the originals
back on :meth:`Tracer.restore`.  Nothing inside ``src/`` is edited.

Spans stay in memory while the run lasts and are written out once, by
:meth:`Tracer.write`, when it ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One wrapped call: its layer name, wall interval and causing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float = 0.0,
                 parent: Optional["Span"] = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; overlapping children count once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = covered_length(children.get(id(span), ()),
                                 span.start, span.end)
        totals[span.name] += span.duration - covered
    return dict(totals)


#: Called after each wrapped call as ``hook(tracer, span, args, result)``;
#: it may rename the span or update counters.
Hook = Callable[["Tracer", Span, tuple, object], None]


class Tracer:
    """Records spans and counters around wrapped calls (thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name*."""
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Keep the largest *value* seen under counter *name*."""
        with self._lock:
            if value > self.counts[name]:
                self.counts[name] = value

    def _wrapper(self, name: str, fn: Callable,
                 hook: Optional[Hook]) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, time.perf_counter(),
                        parent=stack[-1] if stack else None)
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
                if hook is not None:
                    hook(self, span, args, result)

        return traced

    # -- installing -----------------------------------------------------

    def wrap_function(self, name: str, fn: Callable,
                      hook: Optional[Hook] = None) -> None:
        """Wrap *fn* wherever a loaded ``repro`` module binds it."""
        traced = self._wrapper(name, fn, hook)
        bound = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)
                    bound = True
        if not bound:
            raise LookupError(f"no loaded repro module binds {fn!r}")

    def wrap_method(self, name: str, cls: type, attr: str,
                    hook: Optional[Hook] = None) -> None:
        """Wrap method *attr* of *cls* (as the class itself defines it)."""
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, hook))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        """Recorded spans called *name*."""
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        """Write every span as one JSON object per line.

        ``parent`` is the line index of the causing span, or ``null``.
        """
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                parent = (None if span.parent is None
                          else index.get(id(span.parent)))
                out.write(json.dumps({
                    "name": span.name, "start": span.start,
                    "end": span.end, "parent": parent,
                }) + "\n")
