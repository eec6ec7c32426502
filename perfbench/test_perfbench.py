"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from measure import (
    CAL_REF_S,
    REF_REL_TOL,
    Tally,
    classify,
    latency_summary,
    speed_factors,
    tail_rank,
    values_match,
)
from tracing import Tracer, span_totals


@pytest.mark.parametrize(
    "n, rank, pct",
    [(1, 1, 100.0), (5, 3, 60.0), (19, 10, 100 * 10 / 19), (20, 10, 50.0),
     (100, 90, 90.0), (999, 989, 100 * 989 / 999), (1000, 990, 99.0), (1001, 991, 100 * 991 / 1001),
     (30000, 29700, 99.0)],
)
def test_tail_rank_leaves_ten_samples_beyond(n, rank, pct):
    assert tail_rank(n) == (rank, pytest.approx(pct))
    if n >= 20:
        assert n - rank >= 10


def test_latency_summary_reports_the_tail_sample():
    samples = [i / 1000.0 for i in range(100, 0, -1)]  # 1..100 ms, descending
    summary = latency_summary(samples)
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["tail_pct"] == pytest.approx(90.0)
    assert summary["n"] == 100


def test_speed_factor_uses_the_calibrations_around_each_item():
    cals = [CAL_REF_S, CAL_REF_S, 2.0 * CAL_REF_S]
    # item 0 sits between cals 0 and 1, items 1 and 2 between cals 1 and 2
    assert speed_factors([0, 1, 1], cals) == pytest.approx([1.0, 2.0 / 3.0, 2.0 / 3.0])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and a [5, 9]; b [2, 3] sits inside
    # the first a.  names: root = 0, a = 1, b = 2.
    name_id = np.array([0, 1, 2, 1])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    raised = np.array([0, 0, 0, 1])
    totals = span_totals(name_id, parent, start, end, raised, 3)
    assert list(totals["calls"]) == [1, 2, 1]
    assert list(totals["total_s"]) == [10.0, 7.0, 1.0]
    assert list(totals["self_s"]) == [3.0, 6.0, 1.0]
    assert list(totals["failed"]) == [0, 1, 0]


def test_tracer_sees_calls_through_every_binding():
    from martbench import exponents, filtration, weights

    space = filtration.make_tree_space(1, 2)
    seq = exponents.make_exponent_sequence([2.0], 0.5, 0.5)
    ws = weights.unit_weight_system(space, seq)
    tracer = Tracer()
    original = weights.rh_constant
    tracer.install()
    try:
        tracer.item = 7
        assert weights.rh_constant(ws) == 1.0
    finally:
        tracer.remove()
    assert weights.rh_constant is original
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name_id"]]
    # rh_constant calls support_family and rh_support_ratio through the
    # weights namespace, which calls weighted_measure bound from maximal.
    assert names[0] == "weights.rh_constant"
    assert names.count("weights.rh_support_ratio") == 3
    assert "maximal.weighted_measure" in names
    assert arrays["parent"][0] == -1
    assert all(arrays["parent"][i] >= 0 for i in range(1, len(names)))
    assert set(arrays["item"]) == {7}
    assert tracer.supports_returned == 3
    totals = span_totals(
        arrays["name_id"], arrays["parent"], arrays["start"], arrays["end"],
        arrays["raised"], len(tracer.names),
    )
    root = tracer.names.index("weights.rh_constant")
    assert 0.0 < totals["self_s"][root] < totals["total_s"][root]


def test_failure_tally_separates_known_defects():
    tally = Tally()
    assert tally.add("ok", [1.0])
    assert not tally.add("exit2", "exit2")  # known defect: recorded failure
    assert not tally.add("OverflowError", "OverflowError")
    assert tally.correct
    assert not tally.add("verdict", [1.0])  # a wrong answer
    assert not tally.add("ValueError", "exit2")  # a different failure
    assert tally.attempted == 5 and tally.failed == 4
    assert tally.fail_ratio == pytest.approx(0.8)
    assert dict(tally.by_kind) == {"exit2": 1, "OverflowError": 1, "verdict": 1, "ValueError": 1}
    assert dict(tally.unexpected) == {"verdict": 1, "ValueError": 1}
    assert not tally.correct


def test_reference_check_tolerance():
    assert REF_REL_TOL == 1e-9
    assert values_match([1.0, 2.0], [1.0 + 5e-10, 2.0 * (1 - 5e-10)])
    assert not values_match([1.0], [1.0 + 2e-9])
    assert values_match([0.0], [0.0])
    assert not values_match([0.0], [1e-300])
    assert values_match([3], [3]) and not values_match([3], [4])
    assert not values_match([1.0], [1.0, 2.0])
    assert not values_match([1.0], [float("nan")])
    assert classify("ok", [1.0 + 2e-9], [1.0]) == "mismatch"
    assert classify("ok", [1.0 + 5e-10], [1.0]) == "ok"
    # a defect fixed after the seed commit has no constants to compare
    assert classify("ok", [5.0], "exit2") == "ok"
    assert classify("exit2", None, "exit2") == "exit2"
    assert classify("verdict", None, [1.0]) == "verdict"


def test_benchmark_json_matches_the_code():
    import layers
    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert len(spec["per_layer"]) <= 128
