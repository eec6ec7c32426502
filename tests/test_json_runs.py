"""Stopping times and leaf sets through their JSON run forms.

A time is written {"runs": [s0, e0, n0, ...]} and a leaf set as the flat
bounds [s0, e0, ...] of its maximal runs (filtration._leaf_runs).  Every
form here is decoded one leaf at a time (helpers.mask_from_runs and
values_from_runs) and compared with the arrays it was written from, at
every SHAPES shape (1 to 4,096 leaves).
"""

import json

import numpy as np
import pytest

import martbench.filtration as filtration_mod
from martbench.cli import main as cli_main
from martbench.exponents import make_exponent_sequence
from martbench.filtration import (
    KEPT_FAMILY_TIMES,
    StoppingTime,
    _leaf_runs,
    count_stopping_times,
    enumerate_stopping_times,
    make_tree_space,
    sample_stopping_time,
    stopping_time_from_json,
)
from martbench.theorems import sawyer_decomposition

from helpers import (
    SHAPES,
    mask_from_runs,
    random_fvec,
    random_leaf_mask,
    random_weight_system,
    shape_id,
    values_from_runs,
)

INF = StoppingTime.INFINITE


def shape_times(space, rng) -> list[StoppingTime]:
    """The whole family where it is kept, else sampled times where the
    sampler reaches the shape (it overflows at 4,096 leaves), first passages
    of a random per-atom process, the constant times 0 and depth, and the
    all-INFINITE time."""
    if count_stopping_times(space) <= KEPT_FAMILY_TIMES:
        times = list(enumerate_stopping_times(space))
    else:
        try:
            times = [sample_stopping_time(space, rng) for _ in range(8)]
        except OverflowError:
            times = []
    atoms = rng.random(space.atom_offsets[-1])
    times += map(StoppingTime, space.first_passages(atoms, np.array([0.3, 0.6, 0.9, 0.99])))
    for level in (0, space.depth):
        times.append(StoppingTime(np.full(space.n_leaves, level)))
    return times + [StoppingTime(np.full(space.n_leaves, INF))]


def assert_maximal(runs, width: int) -> None:
    """Each run is nonempty, and no two runs touch unless their levels differ."""
    starts, ends = runs[0::width], runs[1::width]
    assert all(s < e for s, e in zip(starts, ends))
    for i in range(1, len(starts)):
        assert ends[i - 1] < starts[i] or (width == 3 and ends[i - 1] == starts[i]
                                           and runs[3 * i - 1] != runs[3 * i + 2])


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_times_round_trip(shape):
    space = make_tree_space(*shape)
    times = shape_times(space, np.random.default_rng(list(shape)))
    docs = json.loads(json.dumps([tau.to_json() for tau in times]))
    for tau, doc in zip(times, docs):
        assert list(doc) == ["runs"] and all(type(v) is int for v in doc["runs"])
        assert_maximal(doc["runs"], 3)
        np.testing.assert_array_equal(values_from_runs(space.n_leaves, doc["runs"]), tau.values)
        again = stopping_time_from_json(space, doc)
        np.testing.assert_array_equal(again.values, tau.values, strict=True)
        # the leaf form is still read, to the same time
        leaf_form = {"values": ["inf" if v == INF else v for v in tau.values.tolist()]}
        np.testing.assert_array_equal(stopping_time_from_json(space, leaf_form).values,
                                      tau.values)
    assert docs[-1] == {"runs": []}


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_sets_round_trip(shape):
    space = make_tree_space(*shape)
    rng = np.random.default_rng(list(shape))
    leaves = space.n_leaves
    sets = [np.zeros(leaves, dtype=bool), np.ones(leaves, dtype=bool)]
    sets += [random_leaf_mask(rng, space, allow_empty=True) for _ in range(4)]
    # unions of atoms, as the trace's cells and lambda-sets are
    for n in space.levels:
        sets.append(space.expand(rng.random(space.n_atoms(n)) < 0.5, n))
    runs, times = _leaf_runs(sets)
    assert times == [] and runs[:2] == [[], [0, leaves]]
    for mask, flat in zip(sets, json.loads(json.dumps(runs))):
        assert_maximal(flat, 2)
        np.testing.assert_array_equal(mask_from_runs(leaves, flat), mask)


def test_chunked_scans_give_the_same_runs(monkeypatch):
    # at most one row or a few rows per stacked pass, sets and times mixed in one chunk
    space = make_tree_space(5, 3)
    rng = np.random.default_rng(4)
    sets = [random_leaf_mask(rng, space, allow_empty=True) for _ in range(5)]
    times = [tau.values for tau in shape_times(space, rng)]
    whole = _leaf_runs(sets, times)
    assert whole[1] == [tau.to_json() for tau in map(StoppingTime, times)]
    for entries in (1, space.n_leaves, 2 * space.n_leaves, 7 * space.n_leaves):
        monkeypatch.setattr(filtration_mod, "_RUN_CHUNK_ENTRIES", entries)
        assert _leaf_runs(sets, times) == whole


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_sawyer_trace_decodes_to_its_own_masks(shape):
    space = make_tree_space(*shape)
    rng = np.random.default_rng([7, *shape])
    seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
    for _ in range(2):
        ws = random_weight_system(rng, space, seq)
        trace = sawyer_decomposition(ws, random_fvec(rng, space, seq, spread=40.0))
        doc = json.loads(json.dumps(trace.to_json()))
        leaves = space.n_leaves
        assert len(doc["cells"]) == len(trace.cells)
        for (key, cell), entry in zip(sorted(trace.cells.items()), doc["cells"]):
            assert [entry["k"], entry["j"]] == list(key)
            np.testing.assert_array_equal(mask_from_runs(leaves, entry["a_runs"]), cell.a_mask)
            np.testing.assert_array_equal(mask_from_runs(leaves, entry["b_runs"]), cell.b_mask)
            assert (entry["theta"], entry["t"]) == (cell.theta, cell.t_value)
        assert sorted(doc["taus"], key=int) == [str(k) for k in sorted(trace.taus)]
        for k, tau in trace.taus.items():
            np.testing.assert_array_equal(
                stopping_time_from_json(space, doc["taus"][str(k)]).values, tau.values)
        assert len(doc["lambda_sets"]) == len(trace.lambda_sets)
        for (lam, keys, g), entry in zip(trace.lambda_sets, doc["lambda_sets"]):
            assert entry["lambda"] == lam and entry["cells"] == [list(key) for key in keys]
            np.testing.assert_array_equal(mask_from_runs(leaves, entry["g_runs"]), g)


@pytest.mark.parametrize("shape", [(0, 2), (1, 2), (2, 2), (1, 3), (3, 2), (2, 3)],
                         ids=shape_id)
def test_enumerate_cli_times_decode_to_the_family(shape, tmp_path):
    space = make_tree_space(*shape)
    out = tmp_path / "times.json"
    spec = json.dumps({"depth": shape[0], "branching": shape[1]})
    assert cli_main(["enumerate-stopping-times", "--space", spec, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    family = list(enumerate_stopping_times(space))
    assert doc["enumerated"] == len(family) == len(doc["times"])
    for tau, entry in zip(family, doc["times"]):
        np.testing.assert_array_equal(stopping_time_from_json(space, entry).values, tau.values)
