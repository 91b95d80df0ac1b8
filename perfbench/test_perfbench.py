"""Tests of the benchmark's own helpers (no program code runs here)."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from perfbench.stats import geomean, percentile
from perfbench.tracing import Span, Tracer, covered_length, self_times
from perfbench.workloads import check_plan_answer

# -- span self time ----------------------------------------------------------


def test_self_time_subtracts_children():
    root = Span("root", 0.0, 10.0)
    spans = [root, Span("a", 1.0, 3.0, root), Span("b", 5.0, 9.0, root)]
    assert self_times(spans) == {"root": 4.0, "a": 2.0, "b": 4.0}


def test_self_time_counts_overlapping_children_once():
    root = Span("root", 0.0, 10.0)
    spans = [root, Span("a", 1.0, 5.0, root), Span("a", 3.0, 7.0, root)]
    assert self_times(spans)["root"] == pytest.approx(4.0)
    assert self_times(spans)["a"] == pytest.approx(8.0)


def test_self_time_clips_children_to_the_parent():
    root = Span("root", 2.0, 6.0)
    child = Span("c", 1.0, 3.0, root)
    assert self_times([root, child])["root"] == pytest.approx(3.0)


def test_self_time_of_nested_spans_sums_to_the_root_duration():
    root = Span("r", 0.0, 8.0)
    mid = Span("m", 1.0, 7.0, root)
    leaf = Span("l", 2.0, 4.0, mid)
    totals = self_times([root, mid, leaf])
    assert totals == {"r": 2.0, "m": 4.0, "l": 2.0}
    assert sum(totals.values()) == pytest.approx(root.duration)


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert covered_length([], 0, 1) == 0


# -- the tracer --------------------------------------------------------------


class _Target:
    def work(self, x):
        return x * 2

    def outer(self, x):
        return self.work(x) + 1


def test_wrapped_method_records_parented_spans_and_restores():
    original = _Target.__dict__["work"]
    tracer = Tracer()
    tracer.wrap_method("work", _Target, "work")
    tracer.wrap_method("outer", _Target, "outer")
    try:
        assert _Target().outer(3) == 7
    finally:
        tracer.restore()
    assert _Target.__dict__["work"] is original
    (work,), (outer,) = tracer.named("work"), tracer.named("outer")
    assert work.parent is outer and outer.parent is None
    assert outer.start <= work.start <= work.end <= outer.end


def test_hook_sees_the_result_and_counters_are_thread_safe():
    tracer = Tracer()
    tracer.wrap_method("work", _Target, "work",
                       lambda t, span, args, result: t.add("sum", result))
    try:
        threads = [threading.Thread(target=lambda: [_Target().work(1)
                                                    for _ in range(500)])
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        tracer.restore()
    assert tracer.counts["sum"] == 4 * 500 * 2
    assert len(tracer.named("work")) == 2000
    assert all(span.parent is None for span in tracer.spans)


def test_peak_keeps_the_largest_value():
    tracer = Tracer()
    for value in (3, 9, 4):
        tracer.peak("backlog", value)
    assert tracer.counts["backlog"] == 9


def test_write_emits_parent_indices(tmp_path):
    tracer = Tracer()
    root = Span("r", 0.0, 2.0)
    tracer.spans = [Span("c", 0.5, 1.0, root), root]
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    lines = path.read_text().splitlines()
    assert '"parent": 1' in lines[0] and '"parent": null' in lines[1]


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 99) == (99, 1)
    assert percentile(values, 100) == (100, 0)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert percentile(range(1000), 99)[1] == 10
    assert percentile(range(500), 99)[1] == 5


def test_percentile_of_few_samples_and_unordered_input():
    assert percentile([7.0], 99) == (7.0, 0)
    assert percentile([3, 1, 2], 50) == (2, 1)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_geomean_weighs_each_value_equally():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


# -- the plan-answer checker -------------------------------------------------

DESIGNS = ("multi-master", "single-master")
COUNTS = (1, 2, 4, 8, 16)


def _curve(mm, sm):
    """throughput_at over two per-N throughput tables."""
    return lambda design, n: (mm if design == DESIGNS[0] else sm)[n]


_MM = {n: 10.0 * n for n in range(1, 17)}
_SM = {n: min(25.0, 10.0 * n) for n in range(1, 17)}


def _answer(design, replicas):
    return SimpleNamespace(design=design, replicas=replicas)


def test_checker_accepts_the_smallest_meeting_deployment():
    at = _curve(_MM, _SM)
    assert check_plan_answer(_answer(DESIGNS[0], 4), 35.0, at, DESIGNS,
                             COUNTS) == []


def test_checker_flags_an_answer_below_the_target():
    at = _curve(_MM, _SM)
    problems = check_plan_answer(_answer(DESIGNS[0], 3), 35.0, at, DESIGNS,
                                 COUNTS)
    assert problems == ["multi-master misses the target at N=3"]


def test_checker_flags_an_oversized_answer_for_either_design():
    at = _curve(_MM, _SM)
    # 20 tps: both designs already meet it at N=2.
    problems = check_plan_answer(_answer(DESIGNS[0], 3), 20.0, at, DESIGNS,
                                 COUNTS)
    assert len(problems) == 2 and all("N=2" in p for p in problems)


def test_checker_on_unreachable_targets():
    at = _curve(_MM, _SM)
    assert check_plan_answer(None, 500.0, at, DESIGNS, COUNTS) == []
    problems = check_plan_answer(None, 150.0, at, DESIGNS, COUNTS)
    assert problems == ["unreachable, yet multi-master meets the target "
                        "at N=16"]
