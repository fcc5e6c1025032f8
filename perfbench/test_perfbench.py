"""Tests of the benchmark's own tooling: self time, the tail rule, the tracer,
the timed loop.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from spans import Recorder, Tracer, self_times, summarize, union_length
from stats import MIN_SAMPLES, percentile, tail_percentile

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_nested_and_adjacent_children():
    # parent [0, 10]; child a [1, 4] holds grandchild [2, 3]; child b [4, 6]
    # starts where a ends.
    starts = [0.0, 1.0, 2.0, 4.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_overlapping_children_count_once():
    # children of one span that overlap (worker threads) cover their union
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 5.0, 7.0]
    assert self_times(starts, ends, [-1, 0, 0])[0] == pytest.approx(4.0)


def test_union_length_clips_to_the_parent():
    assert union_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert union_length([], 0.0, 10.0) == 0.0


@pytest.mark.parametrize("count, pct", [
    (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (10 ** 6, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(count, pct):
    assert tail_percentile(count) == pct


def test_tail_needs_ten_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile(MIN_SAMPLES - 1)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == pytest.approx(4.6)
    assert percentile([7.0], 99.9) == 7.0


def test_tracer_records_layer_spans_and_restores_the_program():
    sys.path.insert(0, str(SRC))
    from scatterpoly import field, linpoly, scatter

    original = scatter.is_scattered_bruteforce
    ctx = field.build_field(3, 1, 4)
    s = linpoly.parse_poly(ctx, "1:g^0")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.rec = Recorder()
        # index 1 = the exponent: constant ratio, so a witness is built
        report = scatter.is_scattered_bruteforce(ctx, s, 1)
    finally:
        tracer.uninstall()
    assert scatter.is_scattered_bruteforce is original
    rec = tracer.rec
    assert rec.names == ["scatter.oracle", "linpoly.evaluate_many"]
    assert rec.parents == [-1, 0]
    summary = summarize(rec)
    assert summary["counters"]["scatter.points_scanned"] == report.projective_points
    assert summary["counters"]["linpoly.points"] == ctx.subfield_index
    assert summary["counters"]["field.scalar_calls"] > 0
    assert not report.scattered
    assert summary["self"]["scatter.oracle.not_scattered"] == pytest.approx(
        summary["busy"]["scatter.oracle"] - summary["busy"]["linpoly.evaluate_many"])


class _FakeWorkload:
    """MIN_SAMPLES decisions that return their own poly; set-up may drift."""

    def __init__(self, drift=False, paced=True):
        self.drift = drift
        self.paced = paced
        self.setups = 0

    def setup(self, seed):
        self.setups += 1
        t = self.setups if self.drift else 0
        return [[SimpleNamespace(stratum=f"s{i}", poly=f"p{i}", t=t) for i in range(MIN_SAMPLES)]]

    def decide(self, item):
        return item.poly

    def check(self, item, outcome):
        return None if outcome == item.poly else "wrong"


def test_end_to_end_times_every_decision_and_repeats_the_set_up():
    wl = _FakeWorkload()
    metrics, attempted, failures, details = run.end_to_end(wl, 1, 0.0, 0.0)
    assert attempted == MIN_SAMPLES and failures == []
    assert wl.setups == run.SETUP_REPEATS == len(details["setup_runs_s"])
    # one pace sample after the import, one per set-up and one before the
    # first decision; the fake decisions are too quick to make another due
    assert details["host_speed"]["samples"] == 1 + run.SETUP_REPEATS + 1
    assert set(metrics) == {"setup_s", "decisions_per_s", "decide_s_p50",
                            "decide_s_tail", "peak_rss_mb"}
    assert set(details["unpaced"]) == set(metrics) - {"peak_rss_mb"}


def test_unpaced_decisions_take_no_pace_samples():
    _, _, _, details = run.end_to_end(_FakeWorkload(paced=False), 1, 0.0, 0.0)
    assert details["host_speed"]["samples"] == 1 + run.SETUP_REPEATS


def test_end_to_end_refuses_a_set_up_that_changes_its_inputs():
    with pytest.raises(RuntimeError, match="other inputs"):
        run.end_to_end(_FakeWorkload(drift=True), 1, 0.0, 0.0)
