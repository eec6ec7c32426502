import dataclasses
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import martbench.filtration as filtration_mod
import martbench.maximal as maximal_mod
import martbench.theorems as theorems_mod
import martbench.weights as weights_mod
from martbench.exponents import conjugate_product, make_exponent_sequence
from martbench.filtration import (
    StoppingTime,
    TreeSpace,
    enumerate_stopping_times,
    is_stopped_measurable,
    is_stopping_time,
    make_tree_space,
    sample_stopping_time,
)
from martbench.holder import (
    FunctionVector,
    function_norms_product,
    function_vector,
    level_products,
    trial_vector,
)
from martbench.maximal import _level_sets, gen_doob_maximal, gen_weighted_maximal, weak_lp_norm
from martbench.report import REL_TOL, _power, _within_margin, check_inequality
from martbench.theorems import (
    band_index,
    estimate_best_constant,
    sawyer_decomposition,
    sawyer_trace_invariants,
    snell_testing_sup,
    verify_ap_to_testing,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from martbench.weights import (
    ap_constant,
    make_weight_system,
    necessity_family_ap,
    rh_constant,
    sp_constant,
    unit_weight_system,
)

import helpers
from helpers import (
    SHAPES,
    assert_same_report,
    band_stack_oracle,
    first_passage_time,
    norms_product_oracle,
    per_threshold_oracle,
    random_fvec,
    random_leaf_mask,
    random_positive,
    random_sequence,
    random_space,
    random_weight_system,
    sawyer_invariants_oracle,
    sawyer_trace_oracle,
    shape_id,
    stopped_measurable_oracle,
    stopped_reward_oracle,
    strong_estimate_oracle,
    union_of_atoms_oracle,
)

INF = StoppingTime.INFINITE


def doubling_seq():
    return make_exponent_sequence([2.0], 0.5, 0.5)


def example_system():
    space = make_tree_space(1, 2)
    ws_seq = doubling_seq()
    from martbench.weights import make_weight_system

    return make_weight_system(space, ws_seq, [np.array([1.0, 4.0])], np.ones(2))


def small_random_system(rng, max_depth=2):
    space = random_space(rng, max_depth=max_depth)
    seq = random_sequence(rng, max_head=3)
    return random_weight_system(rng, space, seq)


def extreme_case(rng, k):
    """System and vector k of the trace property test: depth k % 5, branching
    2 for k % 10 < 5 and 3 otherwise, finite families for even k, k % (head
    length + 1) weights (so sometimes none), and up to a full head of
    components.  The first component spans 1e-300 to 1e300 leaf by leaf
    (k % 3 == 0) or is scaled by one power of ten in that range, has zeros,
    and is all zero for k % 7 == 0."""
    depth, branching = k % 5, 2 + (k // 5) % 2
    probs = rng.uniform(0.2, 1.0, branching**depth)
    probs /= probs.sum()
    probs[-1] += 1.0 - probs.sum()
    space = make_tree_space(depth, branching, probs)
    seq = random_sequence(rng, max_head=3, allow_finite=False)
    if k % 2 == 0:
        seq = make_exponent_sequence(list(seq.head), 0.0)
    weights = [random_positive(rng, space, 2.0) for _ in range(k % (seq.head_len + 1))]
    ws = make_weight_system(space, seq, weights, random_positive(rng, space, 2.0))
    comps = [random_positive(rng, space, 2.0) for _ in range(rng.integers(0, seq.head_len + 1))]
    if comps:
        if k % 3 == 0:
            comps[0] = 10.0 ** rng.uniform(-300.0, 300.0, space.n_leaves)
        else:
            comps[0] = comps[0] * 10.0 ** rng.uniform(-300.0, 300.0)
        comps[0][(rng.random(space.n_leaves) < 0.25) | (k % 7 == 0)] = 0.0
    return ws, FunctionVector(tuple(comps), None)


def perturbed_trace(rng, trace):
    """The trace with one leaf of an envelope or of a cell flipped, or a
    negative measure, in some of its cells, and at times an inf or NaN
    maximal value at one leaf."""
    maximal = trace.maximal_values.copy()
    if rng.random() < 0.25:
        maximal[rng.integers(maximal.size)] = rng.choice([np.inf, np.nan])
    cells = {}
    for key, c in trace.cells.items():
        a, b, theta = c.a_mask.copy(), c.b_mask.copy(), c.theta
        change = rng.integers(4)
        if change == 1:
            a[rng.integers(a.size)] ^= True
        elif change == 2:
            b[rng.integers(b.size)] ^= True
        elif change == 3:
            theta = -1.0 - theta
        cells[key] = theorems_mod.SawyerCell(a, b, theta, c.t_value)
    return theorems_mod.SawyerTrace(
        trace.k_lo, trace.k_hi, cells, trace.taus, maximal, [])


class TestBandIndex:
    def test_powers_of_two_fall_left(self):
        np.testing.assert_array_equal(band_index([1.0, 2.0, 4.0]), [-1, 0, 1])

    def test_generic_values(self):
        np.testing.assert_array_equal(band_index([0.3, 3.0, 5.0]), [-2, 1, 2])

    def test_band_membership(self):
        rng = np.random.default_rng(60)
        y = np.exp(rng.uniform(-10, 10, 1000))
        k = band_index(y)
        assert np.all(np.ldexp(1.0, k) < y)
        assert np.all(y <= np.ldexp(1.0, k + 1))

    def test_inf_is_in_the_top_band_and_nan_in_none(self):
        # np.ldexp(1.0, 1024) is inf, so 2**1023 < inf <= 2**1024
        top = np.finfo(float).max
        np.testing.assert_array_equal(
            band_index([top, np.inf, np.nan, 0.0, -1.0]),
            [1023, 1023, *[theorems_mod.NO_BAND] * 3],
        )


class TestApToTesting:
    def test_unit_trivial(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.ones(2)])
        tau = StoppingTime(np.zeros(2, dtype=np.int64))
        report = verify_ap_to_testing(ws, fv, tau)
        assert report.passed
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.constant * report.rhs == pytest.approx(1.0, rel=1e-12)

    def test_example_system_sigma_vector(self):
        ws = example_system()
        fv = FunctionVector((ws.sigmas[0],), None)
        tau = StoppingTime(np.ones(2, dtype=np.int64))
        report = verify_ap_to_testing(ws, fv, tau)
        assert report.passed and report.slack >= 0.0

    def test_random_systems_all_stopping_times(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            ws = small_random_system(rng)
            fv = random_fvec(rng, ws.space, ws.seq)
            for tau in enumerate_stopping_times(ws.space):
                assert verify_ap_to_testing(ws, fv, tau).passed

    @pytest.mark.parametrize("finite", [False, True], ids=["infinite", "finite"])
    def test_without_a_time_checks_the_exact_supremum(self, finite):
        # no time: the left side is snell_testing_sup's supremum and the right
        # side the active-weight norm product, bit for bit, and it dominates
        # every single time's left side
        rng = np.random.default_rng(64 + finite)
        for _ in range(15):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng, max_head=3, allow_finite=False)
            if finite:
                seq = make_exponent_sequence(list(seq.head), 0.0)
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq)
            report = verify_ap_to_testing(ws, fv)
            assert report.passed
            assert report.lhs == _power(snell_testing_sup(ws, fv), seq.aggregate_reciprocal)
            assert report.rhs == function_norms_product(space, fv, seq, ws.active_weights)
            assert report.constant == ap_constant(ws)
            assert report.metadata == {"stopping_sup": "exact", "space": space.digest}
            worst = max(verify_ap_to_testing(ws, fv, tau).lhs
                        for tau in enumerate_stopping_times(space))
            assert worst <= report.lhs * (1.0 + 1e-12)

    def test_rejects_non_adapted(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.ones(2)])
        with pytest.raises(ValueError):
            verify_ap_to_testing(ws, fv, StoppingTime(np.array([0, 1])))

    def test_per_system_and_per_vector_work_runs_once(self, monkeypatch):
        # 9 leaves, 730 stopping times, two vectors: the joint-condition
        # matrix is built once and the level products once per vector
        rng = np.random.default_rng(62)
        probs = rng.uniform(0.2, 1.0, 9)
        space = make_tree_space(2, 3, probs / probs.sum())
        seq = make_exponent_sequence([2.5, 3.0, 4.0], 0.2, 0.5)
        ws = make_weight_system(
            space, seq, [random_positive(rng, space, 3.0) for _ in range(3)],
            random_positive(rng, space, 3.0),
        )
        fvecs = [random_fvec(rng, space, seq) for _ in range(2)]
        filtration_mod._tree_shape.cache_clear()  # fresh times, not yet scanned
        taus = list(enumerate_stopping_times(space))
        assert len(taus) == 730
        # kept times are adapted by construction, so no time is scanned, and
        # the per-pair parts (level products, norm product, reward) run once
        # per vector
        calls = {"ap_level_values": 0, "level_product_atoms": 0, "_adapted_scan": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(weights_mod, "ap_level_values")
        counting(theorems_mod, "level_product_atoms")
        counting(filtration_mod, "_adapted_scan")
        theorems_mod._testing_parts.cache_clear()
        reports = [[verify_ap_to_testing(ws, fv, tau) for tau in taus] for fv in fvecs]
        assert calls == {"ap_level_values": 1, "level_product_atoms": 2, "_adapted_scan": 0}
        assert theorems_mod._testing_parts.cache_info().misses == 2
        monkeypatch.undo()
        c_a = float(weights_mod.ap_level_values(ws).max())
        for fv, reps in zip(fvecs, reports):
            rows = level_products(space, fv, seq)
            rhs = function_norms_product(space, fv, seq, ws.active_weights)
            for tau, rep in zip(taus, reps):
                lhs = stopped_reward_oracle(ws, rows, tau, 1.0 / seq.aggregate_reciprocal)
                assert rep.lhs == lhs**seq.aggregate_reciprocal
                assert (rep.rhs, rep.constant) == (rhs, c_a)
                assert rep.passed

    def test_gathered_lhs_matches_the_stopped_oracle_bit_for_bit(self):
        # every enumerated time of 2-9 leaf systems, and fresh first-passage,
        # never-stopping and constant-0 times, masked and unmasked vectors,
        # finite and infinite families
        rng = np.random.default_rng(75)
        shapes = [(1, r) for r in range(2, 10)] + [(2, 2), (2, 3), (3, 2)]
        seen = set()
        for trial in range(33):
            depth, branching = shapes[trial % len(shapes)]
            probs = rng.uniform(0.2, 1.0, branching**depth)
            space = make_tree_space(depth, branching, probs / probs.sum())
            seq = random_sequence(rng, max_head=3)
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq)
            if trial % 2:
                fv = FunctionVector(fv.active, random_leaf_mask(rng, space))
            seen.add((fv.mask is None, seq.is_finite_family))
            rows = level_products(space, fv, seq)
            rhs = function_norms_product(space, fv, seq, ws.active_weights)
            p = 1.0 / seq.aggregate_reciprocal
            never = StoppingTime(np.full(space.n_leaves, INF))
            fresh = [never, StoppingTime(np.zeros(space.n_leaves, dtype=np.int64))] + [
                first_passage_time(space, rows, t) for t in np.unique(rows)
            ]
            for tau in [*enumerate_stopping_times(space), *fresh]:
                rep = verify_ap_to_testing(ws, fv, tau)
                assert rep.lhs == stopped_reward_oracle(ws, rows, tau, p) ** seq.aggregate_reciprocal
                assert (rep.rhs, rep.constant) == (rhs, ws.ap_max)
                assert rep.metadata["finite_leaves"] == int(np.sum(tau.values != INF))
            reward = theorems_mod._testing_parts(ws, fv)[2]
            assert theorems_mod._stopped_sums(space, reward, never.values[None]).tolist() == [0.0]
            assert verify_ap_to_testing(ws, fv, never).lhs == 0.0
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_family_table_is_the_gather_bit_for_bit(self):
        # the per-(system, vector) table, read by slot, and a time's own
        # gather of the reward, against the stopped oracle on every kept
        # shape, finite and infinite families, rewards over many binades;
        # the table is keyed by the kept times themselves, so fresh times
        # equal in value to kept ones and an int32 time gather their own
        # entries
        rng = np.random.default_rng(91)
        shapes = [(0, 2)] + [(1, r) for r in range(2, 12)] + [(2, 2), (2, 3), (3, 2)]
        for trial, (depth, branching) in enumerate(shapes * 2):
            n = branching**depth
            probs = rng.uniform(0.2, 1.0, n)
            space = make_tree_space(depth, branching, probs / probs.sum())
            seq = random_sequence(rng, max_head=3, allow_finite=False)
            if trial % 2:
                seq = make_exponent_sequence(list(seq.head), 0.0)
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq, spread=1e6)
            rows = level_products(space, fv, seq)
            p, rp = 1.0 / seq.aggregate_reciprocal, seq.aggregate_reciprocal
            slots, table = theorems_mod._family_reports(ws, fv)[:2]
            reward = theorems_mod._testing_parts(ws, fv)[2]
            times = list(enumerate_stopping_times(space))
            assert len(slots) == len(table) == len(times)
            fresh = [StoppingTime(np.full(n, INF)), StoppingTime(np.zeros(n, dtype=np.int64))]
            fresh += [first_passage_time(space, rows, t) for t in np.unique(rows)]
            for i, tau in enumerate(times + fresh):
                expected = stopped_reward_oracle(ws, rows, tau, p)
                assert theorems_mod._stopped_sums(space, reward, tau.values[None])[0] == expected
                if i < len(times):
                    assert table[slots[tau]][0] == expected**rp
                else:
                    assert tau not in slots
                assert verify_ap_to_testing(ws, fv, tau).lhs == expected**rp
            narrow = StoppingTime(times[-1].values.astype(np.int32))
            assert narrow not in slots and is_stopping_time(space, narrow)
            expected = stopped_reward_oracle(ws, rows, narrow, p)
            assert theorems_mod._stopped_sums(space, reward, narrow.values[None])[0] == expected
            assert verify_ap_to_testing(ws, fv, narrow).lhs == expected**rp

    def test_a_time_reads_the_table_of_its_own_system_shape(self):
        # (2, 2) and (1, 4) both have 4 leaves; [1, 1, inf, inf] is a kept
        # time of both: each system reads its own shape's from its table, and
        # scans the other shape's, which is adapted here and gathers its own
        rng = np.random.default_rng(92)
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        systems, kept = [], []
        for depth, branching in [(2, 2), (1, 4)]:
            space = make_tree_space(depth, branching, rng.dirichlet(np.ones(4)))
            ws = random_weight_system(rng, space, seq)
            systems.append((ws, random_fvec(rng, space, seq)))
            kept.append({tuple(tau.values.tolist()): tau for tau in enumerate_stopping_times(space)})
        shared = [times[(1, 1, INF, INF)] for times in kept]
        deep = kept[0][(1, 1, 2, 2)]
        rp = seq.aggregate_reciprocal
        for _ in range(2):  # alternate, so the one-entry table is refilled each time
            seen = []
            for (ws, fv), own, other in zip(systems, shared, shared[::-1]):
                rows = level_products(ws.space, fv, seq)
                expected = stopped_reward_oracle(ws, rows, own, 1.0 / rp)
                slots, table = theorems_mod._family_reports(ws, fv)[:2]
                assert table[slots[own]][0] == expected**rp and other not in slots
                for tau in (own, other):
                    assert verify_ap_to_testing(ws, fv, tau).lhs == expected**rp
                seen.append(expected)
            assert seen[0] != seen[1]
        (ws22, fv22), (ws14, fv14) = systems
        assert verify_ap_to_testing(ws22, fv22, deep).passed
        with pytest.raises(ValueError):  # kept on (2, 2), not adapted on (1, 4)
            verify_ap_to_testing(ws14, fv14, deep)

    def test_streamed_shape_gathers_each_time(self):
        # binary depth 4 (458,330 times) keeps no table; first-passage
        # times sum their own gather of the reward
        rng = np.random.default_rng(93)
        space = make_tree_space(4, 2, rng.dirichlet(np.ones(16)))
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq)
        fv = random_fvec(rng, space, seq)
        assert theorems_mod._family_reports(ws, fv)[:2] == ({}, [])
        reward = theorems_mod._testing_parts(ws, fv)[2]
        rows = level_products(space, fv, seq)
        p = 1.0 / seq.aggregate_reciprocal
        for t in np.unique(rows)[::7]:
            tau = first_passage_time(space, rows, t)
            expected = stopped_reward_oracle(ws, rows, tau, p)
            assert theorems_mod._stopped_sums(space, reward, tau.values[None])[0] == expected
            rep = verify_ap_to_testing(ws, fv, tau)
            assert rep.lhs == expected**seq.aggregate_reciprocal

    def test_float_time_raises_value_error(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.ones(2)])
        with pytest.raises(ValueError):
            verify_ap_to_testing(ws, fv, StoppingTime(np.array([0.5, 0.5])))

    def test_non_adapted_is_rejected_again_on_a_repeated_call(self):
        space = make_tree_space(2, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.ones(4)])
        tau = StoppingTime(np.array([1, 2, 2, 2]))
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_ap_to_testing(ws, fv, tau)

    def test_caller_mutation_does_not_reach_the_caches(self):
        space = make_tree_space(2, 2, [0.1, 0.2, 0.3, 0.4])
        seq = make_exponent_sequence([2.0, 3.0], 1.0 / 6.0, 0.5)
        w, v = np.array([1.0, 4.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.5, 3.0])
        f, g, mask = np.array([3.0, 0.5, 2.0, 1.0]), np.array([1.0, 2.0, 0.5, 4.0]), np.ones(4, bool)
        ws = make_weight_system(space, seq, [w], v)
        fvecs = [function_vector(space, [f]), FunctionVector((g, f), mask)]
        tau = StoppingTime(np.array([1, 1, 2, INF]))
        before = [verify_ap_to_testing(ws, fv, tau).to_json() for fv in fvecs]
        for arr in (w, v, f, g):
            arr *= 3.0
        mask[0] = False
        after = [verify_ap_to_testing(ws, fv, tau).to_json() for fv in fvecs]
        assert after == before
        for arr in (ws.v, fvecs[0].active[0], fvecs[1].active[1], fvecs[1].mask):
            with pytest.raises(ValueError):
                arr[0] = arr[1]


def same(a: dict, b: dict) -> bool:
    """Report JSON equal field for field, a NaN slack included."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestPerTimeReports:
    """verify_ap_to_testing at a time is check_inequality on the oracle's
    stopped reward, field for field, whether the time reads the per-pair
    table or gathers its own entries."""

    @staticmethod
    def expected(ws, fv, tau, tolerance):
        space, seq = ws.space, ws.seq
        rp = seq.aggregate_reciprocal
        with np.errstate(over="ignore", invalid="ignore"):
            rows = level_products(space, fv, seq)
            reward = stopped_reward_oracle(ws, rows, tau, 1.0 / rp)
            rhs = function_norms_product(space, fv, seq, ws.active_weights)
        metadata = {"space": space.digest, "finite_leaves": int(np.sum(tau.values != INF))}
        return check_inequality(
            "ap-to-testing", _power(reward, rp), rhs, ws.ap_max, tolerance, metadata).to_json()

    @pytest.mark.parametrize("tolerance", [0.0, 1e-6])
    def test_every_kept_time_matches_the_oracle_report(self, tolerance):
        # shapes of 1-11 leaves, finite and infinite tails, masked vectors
        rng = np.random.default_rng(171)
        shapes = [(0, 2), (1, 2), (1, 5), (1, 11), (2, 2), (2, 3), (3, 2)]
        seen = set()
        for trial, (depth, branching) in enumerate(shapes * 2):
            n = branching**depth
            space = make_tree_space(depth, branching, rng.dirichlet(np.ones(n)))
            seq = random_sequence(rng, max_head=3, allow_finite=False)
            if trial % 2:
                seq = make_exponent_sequence(list(seq.head), 0.0)
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq, spread=1e6)
            if trial >= len(shapes):
                fv = FunctionVector(fv.active, random_leaf_mask(rng, space))
            seen.add((fv.mask is None, seq.is_finite_family))
            times = list(enumerate_stopping_times(space))
            assert len(theorems_mod._family_reports(ws, fv)[0]) == len(times)
            for tau in times:
                got = verify_ap_to_testing(ws, fv, tau, tolerance).to_json()
                assert same(got, self.expected(ws, fv, tau, tolerance))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("head, v, active, reasons", [
        ([2.5, 3.0], 1.0, None, {None}),
        ([2.0, 2.0], 1.0, [[1e200, 1.0], [1e200, 1.0]], {"inf"}),
        ([2.0, 2.0, 2.0], 1.0, [[1e300, 1e300], [1e300, 1e300], [0.0, 1.0]], {"inf", "nan"}),
    ], ids=["finite", "inf", "nan"])
    def test_kept_time_at_the_default_tolerance_is_its_table_row(
            self, monkeypatch, head, v, active, reasons):
        # a kept time at REL_TOL with both sides finite returns the table's
        # row as the report, field for field and type for type what
        # check_inequality builds; an infinite or NaN left side (the inf and
        # nan cases, whose bound is inf too), another tolerance and a time
        # off the table (an int32 copy) go through check_inequality
        rng = np.random.default_rng(174)
        space = make_tree_space(1, 2, [0.3, 0.7])
        seq = make_exponent_sequence(head, 0.0)
        ws = make_weight_system(space, seq, [np.ones(2)] * len(head), np.full(2, v))
        fv = random_fvec(rng, space, seq) if active is None else function_vector(space, active)
        calls, seen = [], set()
        monkeypatch.setattr(theorems_mod, "check_inequality",
                            lambda *args: calls.append(args) or check_inequality(*args))
        for tau in enumerate_stopping_times(space):
            off = StoppingTime(tau.values.astype(np.int32))
            for time, tolerance in [(tau, REL_TOL), (tau, 1e-6), (off, REL_TOL)]:
                calls.clear()
                got = verify_ap_to_testing(ws, fv, time, tolerance)
                want = self.expected(ws, fv, time, tolerance)
                assert same(got.to_json(), want)
                fields = [getattr(got, f.name) for f in dataclasses.fields(got)]
                assert [type(x) for x in fields] == [str, float, float, float, float, bool,
                                                     float, dict]
                seen.add(want["metadata"].get("reason"))
                table = time is tau and tolerance == REL_TOL and "reason" not in want["metadata"]
                assert len(calls) == (not table)
        assert seen == reasons

    @pytest.mark.parametrize("head, v, active", [
        ([2.0, 2.0], 1.0, [[1e200, 1.0], [1e200, 1.0]]),
        ([1.2, 1.2, 1.2], 1e4, [[1e100, 1.0]] * 3),
    ], ids=["reward", "power"])
    def test_overflow_reports_inf(self, head, v, active):
        # the stopped reward past the float range, or a finite reward whose
        # power 1/p is (5e123 ** 2.5)
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence(head, 0.0)
        ws = make_weight_system(space, seq, [np.ones(2)] * len(head), np.full(2, v))
        fv = function_vector(space, active)
        reports = {}
        for tau in enumerate_stopping_times(space):
            got = verify_ap_to_testing(ws, fv, tau, 0.0).to_json()
            assert same(got, self.expected(ws, fv, tau, 0.0))
            reports[tuple(tau.values.tolist())] = got
        top = reports[(1, INF)]
        assert top["lhs"] == math.inf and not top["pass"] and top["metadata"]["reason"] == "inf"

    def test_times_off_the_table_gather_their_own(self):
        # a narrowed (int32) time and the kept times of the other 9-leaf
        # shape (1, 9) on the kept shape (2, 3), and seeded streamed times of
        # the 16-leaf binary shape, whose family is not kept; each is scanned
        # on the system's shape, and one not adapted there raises
        rng = np.random.default_rng(172)
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        for depth, branching in [(2, 3), (4, 2)]:
            space = make_tree_space(depth, branching, rng.dirichlet(np.ones(branching**depth)))
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq)
            slots = theorems_mod._family_reports(ws, fv)[0]
            if depth == 2:
                taus = [StoppingTime(tau.values.astype(np.int32))
                        for tau in list(enumerate_stopping_times(space))[::50]]
                taus += list(enumerate_stopping_times(make_tree_space(1, 9)))[::40]
            else:
                assert slots == {}
                taus = [sample_stopping_time(space, rng) for _ in range(40)]
            verdicts = set()
            for tau in taus:
                assert tau not in slots
                verdicts.add(is_stopping_time(space, tau))
                if not is_stopping_time(space, tau):
                    with pytest.raises(ValueError):
                        verify_ap_to_testing(ws, fv, tau)
                    continue
                for tolerance in (0.0, 1e-6):
                    got = verify_ap_to_testing(ws, fv, tau, tolerance).to_json()
                    assert same(got, self.expected(ws, fv, tau, tolerance))
            assert verdicts == ({True, False} if depth == 2 else {True})

    def test_only_per_time_calls_build_the_table(self):
        rng = np.random.default_rng(173)
        space = make_tree_space(2, 2, rng.dirichlet(np.ones(4)))
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq)
        fv = random_fvec(rng, space, seq)
        theorems_mod._family_reports.cache_clear()
        verify_ap_to_testing(ws, fv)
        verify_testing_to_weak(ws, fv, ap_constant(ws))
        assert theorems_mod._family_reports.cache_info().misses == 0
        for tau in enumerate_stopping_times(space):
            verify_ap_to_testing(ws, fv, tau)
        assert theorems_mod._family_reports.cache_info().misses == 1


def first_theorem_cases(rng, space):
    """(system, vector) pairs of the first theorem's chain: an infinite tail
    and a finite family (tail mass 0), each with an unmasked and a masked
    vector, and both again with components of 1e200 on leaf 0, whose norm
    factors and products overflow."""
    for tail in ((0.2, 0.5), (0.0, 0.5)):
        seq = make_exponent_sequence([2.5, 3.0, 4.0], *tail)
        ws = make_weight_system(space, seq, [random_positive(rng, space) for _ in range(2)],
                                random_positive(rng, space))
        comps = tuple(random_positive(rng, space, 6.0) for _ in range(2))
        mask = random_leaf_mask(rng, space)
        mask[0] = True
        for active in (comps, tuple(np.where(space.leaf_index == 0, 1e200, c) for c in comps)):
            yield ws, FunctionVector(active)
            yield ws, FunctionVector(active, mask)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_first_theorem_checks_match_the_band_stack_and_per_threshold_oracles(shape):
    # the band sums from the kept masses, the stopped rewards per passage
    # block and the per-time table's verdicts: bit for bit today's code moved
    # to the oracles, the reports field by field, at the default tolerance
    # and at -0.5
    depth, branching = shape
    rng = np.random.default_rng([29, depth, branching])
    probs = rng.uniform(0.2, 1.0, branching**depth)
    space = make_tree_space(depth, branching, probs / probs.sum())
    kept = list(enumerate_stopping_times(space)) if space.n_leaves <= 9 else []
    for ws, fv in first_theorem_cases(rng, space):
        atoms, _, reward, _ = theorems_mod._testing_parts(ws, fv)
        probs = space.leaf_probs * ws.v
        thresholds = np.nextafter(_level_sets(space.level_sup(atoms), probs)[0], 0.0)
        rewards = theorems_mod._stopped_rewards(space, atoms, reward, thresholds)
        _, v_sums, factor_sums, _ = theorems_mod._band_sums(ws, fv)
        for tolerance in (REL_TOL, -0.5):
            want, want_rewards = per_threshold_oracle(ws, fv, 2.0, tolerance)
            assert_same_report(verify_testing_to_weak(ws, fv, 2.0, tolerance), want)
            want, want_v, want_factors = band_stack_oracle(ws, fv, ws.ap_max, tolerance)
            assert_same_report(verify_weak_to_testing(ws, fv, ws.ap_max, tolerance), want)
        np.testing.assert_array_equal(rewards.view(np.uint64), want_rewards.view(np.uint64))
        np.testing.assert_array_equal(v_sums.view(np.uint64), want_v.view(np.uint64))
        np.testing.assert_array_equal(factor_sums.view(np.uint64), want_factors.view(np.uint64))
        for tau in kept:
            want = TestPerTimeReports.expected(ws, fv, tau, REL_TOL)
            assert same(verify_ap_to_testing(ws, fv, tau).to_json(), want)


@pytest.mark.parametrize("shape", [(2, 2), (1, 9), (4, 2), (3, 3)], ids=shape_id)
def test_off_table_times_sum_the_flat_gather_bit_for_bit(shape):
    # kept shapes (4 and 9 leaves) and streamed ones (16 and 27): a time
    # that reads no table row, in int64 and in int32, sums the one flat
    # gather of its finite entries, alone and in a block of times
    depth, branching = shape
    rng = np.random.default_rng([35, depth, branching])
    space = make_tree_space(depth, branching, rng.dirichlet(np.ones(branching**depth)))
    for finite in (False, True):
        seq = make_exponent_sequence([2.5, 3.0], *((0.0, 0.5) if finite else (0.2, 0.5)))
        ws = random_weight_system(rng, space, seq)
        fv = random_fvec(rng, space, seq, spread=1e6)
        slots = theorems_mod._family_reports(ws, fv)[0]
        reward = theorems_mod._testing_parts(ws, fv)[2]
        rows = level_products(space, fv, seq)
        times = [first_passage_time(space, rows, t) for t in np.unique(rows)[::3]]
        times += [sample_stopping_time(space, rng) for _ in range(6)]
        times += [StoppingTime(tau.values.astype(np.int32)) for tau in times]
        want = [helpers.flat_gather_oracle(reward, tau) for tau in times]
        block = theorems_mod._stopped_sums(space, reward, np.array([t.values for t in times]))
        assert block.tolist() == want
        for tau, expected in zip(times, want):
            assert tau not in slots
            one = theorems_mod._stopped_sums(space, reward, tau.values[None])
            assert one.tolist() == [expected]
            report = verify_ap_to_testing(ws, fv, tau)
            assert report.lhs == _power(expected, seq.aggregate_reciprocal)
            assert report.metadata["finite_leaves"] == helpers.flat_index_oracle(tau).size


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_sp_test_estimate_matches_the_per_trial_oracle(shape, monkeypatch):
    # the trial supports in stacks through sp_ratios (all in one at these
    # sizes, and three to a stack under a smaller budget): bit for bit the
    # per-trial sp_support_ratio loop, for infinite and finite tails, 1 to 8
    # trials, and with a NaN ratio on every support that holds the last leaf
    # and not every leaf
    depth, branching = shape
    rng = np.random.default_rng([36, depth, branching])
    space = make_tree_space(depth, branching, rng.dirichlet(np.ones(branching**depth)))
    systems = [random_weight_system(rng, space, make_exponent_sequence([2.5, 3.0], *tail))
               for tail in ((0.2, 0.5), (0.0, 0.5))]
    calls, ratios = [], theorems_mod.sp_ratios

    def stacked(ws, masks):
        calls.append(len(masks))
        return ratios(ws, masks)

    def compare():
        seen = set()
        for ws in systems:
            for trials in range(1, 9):
                seed = int(rng.integers(1000))
                got = estimate_best_constant("sp-test", ws, trials, seed)
                assert repr(got) == repr(helpers.sp_test_estimate_oracle(ws, trials, seed))
                seen.add(math.isnan(got))
        return seen

    monkeypatch.setattr(theorems_mod, "sp_ratios", stacked)
    assert compare() == {False} and calls == list(range(1, 9)) * 2
    original, leaf = weights_mod._sp_rows, space.n_leaves - 1

    def kernel(ws, masks, masses, at=None):
        out = original(ws, masks, masses, at)
        out[masks[:, leaf] & ~masks.all(axis=1)] = np.nan
        return out

    monkeypatch.setattr(weights_mod, "_sp_rows", kernel)
    assert compare() == ({False} if depth == 0 else {False, True})
    monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 3 * space.n_leaves)
    calls.clear()
    assert compare() == ({False} if depth == 0 else {False, True})
    assert max(calls) == 3 and sum(calls) == 2 * sum(range(1, 9))


def test_testing_parts_drops_the_last_pair_before_the_next_build(monkeypatch):
    # the kept arrays of one (system, vector) pair are gone while the next
    # pair's are built, so a build never holds two pairs' rewards
    rng = np.random.default_rng(30)
    space = make_tree_space(3, 2)
    seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
    ws = random_weight_system(rng, space, seq)
    fv, other = (random_fvec(rng, space, seq) for _ in range(2))
    theorems_mod._testing_parts.cache_clear()
    reward = weakref.ref(theorems_mod._testing_parts(ws, fv)[2])
    alive, original = [], theorems_mod.level_product_atoms

    def watched(*args, **kwargs):
        alive.append(reward() is not None)
        return original(*args, **kwargs)

    monkeypatch.setattr(theorems_mod, "level_product_atoms", watched)
    theorems_mod._testing_parts(ws, fv)
    assert alive == [] and reward() is not None
    theorems_mod._testing_parts(ws, other)
    assert alive == [False] and reward() is None
    assert theorems_mod._testing_parts.cache_info()[:2] == (1, 2)


class TestTestingToWeak:
    def test_zero_vector(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.zeros(2)])
        report = verify_testing_to_weak(ws, fv, 1.0)
        assert report.passed
        assert report.lhs == 0.0

    def test_indicator_on_unit_system(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [[4.0, 0.0]])
        c_test = max(
            verify_ap_to_testing(ws, fv, tau).lhs / verify_ap_to_testing(ws, fv, tau).rhs
            for tau in enumerate_stopping_times(space)
        )
        report = verify_testing_to_weak(ws, fv, c_test)
        assert report.passed

    def test_random_with_observed_constant(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            ws = small_random_system(rng)
            fv = random_fvec(rng, ws.space, ws.seq)
            observed = 0.0
            for tau in enumerate_stopping_times(ws.space):
                rep = verify_ap_to_testing(ws, fv, tau)
                if rep.rhs > 0:
                    observed = max(observed, rep.lhs / rep.rhs)
            assert verify_testing_to_weak(ws, fv, observed).passed

    def test_thresholds_are_the_distinct_positive_maximal_values(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            ws = small_random_system(rng)
            fv = random_fvec(rng, ws.space, ws.seq)
            fv = FunctionVector((np.where(rng.random(ws.space.n_leaves) < 0.3, 0.0,
                                          fv.active[0]), *fv.active[1:]), None)
            maximal = gen_doob_maximal(ws.space, fv, ws.seq)
            report = verify_testing_to_weak(ws, fv, 1e300)
            p = 1.0 / ws.seq.aggregate_reciprocal
            assert report.lhs == weak_lp_norm(ws.space, maximal, p, ws.v)
            assert report.metadata["n_thresholds"] == np.unique(maximal[maximal > 0.0]).size

    @pytest.mark.parametrize("depth, branching", [(0, 2), (1, 5), (2, 3), (4, 2)],
                             ids=["1-leaf", "5-leaf", "9-leaf", "16-leaf-streamed"])
    def test_first_passage_rewards_match_the_stopped_oracle(
            self, monkeypatch, depth, branching):
        # every threshold the weak check reads, masked and unmasked vectors:
        # its stopped reward, to the power 1/p, bit for bit the per-time
        # oracle's at the first passage just below the threshold (support
        # {maximal >= t}); the kept family's table is not built for it
        rng = np.random.default_rng([67, depth, branching])
        compared = []
        monkeypatch.setattr(theorems_mod, "_within_margin",
                            lambda lhs, rhs, tol: compared.append(rhs) or _within_margin(lhs, rhs, tol))
        theorems_mod._family_reports.cache_clear()
        for trial in range(4):
            space = make_tree_space(depth, branching, rng.dirichlet(np.ones(branching**depth)))
            seq = random_sequence(rng, max_head=3)
            ws = random_weight_system(rng, space, seq)
            fv = random_fvec(rng, space, seq, spread=1e6)
            if trial % 2:
                fv = FunctionVector(fv.active, random_leaf_mask(rng, space))
            compared.clear()
            testing = verify_ap_to_testing(ws, fv)  # the exact supremum, as verify-ap runs
            report = verify_testing_to_weak(ws, fv, testing.lhs / testing.rhs)
            rows = level_products(space, fv, seq)
            maximal = rows.max(axis=0)
            thresholds = np.unique(maximal[maximal > 0.0])[::-1]  # as the check takes them
            assert report.passed and thresholds.size == report.metadata["n_thresholds"]
            rp = seq.aggregate_reciprocal
            taus = [first_passage_time(space, rows, np.nextafter(t, 0.0)) for t in thresholds]
            for tau, t in zip(taus, thresholds):
                np.testing.assert_array_equal(tau.finite, maximal >= t)
            expected = np.array([stopped_reward_oracle(ws, rows, tau, 1.0 / rp) for tau in taus])
            assert len(compared) == 1 and compared[0].tobytes() == (expected**rp).tobytes()
        assert theorems_mod._family_reports.cache_info().misses == 0

    @pytest.mark.parametrize("active, reason", [
        ([[1e200, 1.0], [1e200, 1.0]], "inf"),
        ([[1e300, 1e300], [1e300, 1e300], [0.0, 1.0]], "nan"),
    ], ids=["inf", "nan"])
    def test_non_finite_maximal_function_fails_with_a_reason(self, active, reason):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0] * len(active), 0.0)
        ws = unit_weight_system(space, seq)
        report = verify_testing_to_weak(ws, function_vector(space, active), 1.0)
        assert not report.passed and report.metadata["reason"] == reason
        assert (report.lhs == math.inf) if reason == "inf" else math.isnan(report.lhs)


class TestWeakToTesting:
    def test_zero_vector_vacuous(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.zeros(2)])
        report = verify_weak_to_testing(ws, fv, 1.0)
        assert report.passed and report.lhs == 0.0

    def test_random_with_ap_constant(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            ws = small_random_system(rng)
            fv = random_fvec(rng, ws.space, ws.seq)
            assert verify_weak_to_testing(ws, fv, ap_constant(ws)).passed

    def test_atom_indicator_single_band_per_level(self):
        space = make_tree_space(2, 2)
        ws = unit_weight_system(space, doubling_seq())
        chi = np.array([1.0, 1.0, 0.0, 0.0])
        fv = function_vector(space, [chi])
        report = verify_weak_to_testing(ws, fv, ap_constant(ws))
        assert report.passed
        for bands in report.metadata["bands_per_level"].values():
            assert len(bands) <= 1

    def test_bands_are_the_dyadic_slices_of_the_positive_level_products(self):
        rng = np.random.default_rng(76)
        for _ in range(30):
            ws = small_random_system(rng)
            space = ws.space
            fv = random_fvec(rng, space, ws.seq)
            zeros = rng.random(space.n_leaves) < 0.3
            fv = FunctionVector(tuple(np.where(zeros, 0.0, f) for f in fv.active), None)
            rows = level_products(space, fv, ws.seq)
            bands = verify_weak_to_testing(ws, fv, ap_constant(ws)).metadata["bands_per_level"]
            want = {}
            for n in space.levels:
                ks = sorted({int(k) for k in band_index(rows[n][rows[n] > 0.0])})
                if ks:
                    want[n] = {k: np.flatnonzero(
                        (rows[n] > 2.0**k) & (rows[n] <= 2.0 ** (k + 1))).tolist() for k in ks}
            assert bands == want

    @pytest.mark.parametrize("top", [1e200, 1.7e308])
    def test_overflow_fails_with_a_reason(self, top):
        # 1.7e308 lies in the top binade, band 1023, whose upper end 2**1024
        # is past the float range; the norm product overflows for both
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [[top, 1.0]])
        for c_weak in (1.0, 1e200):
            report = verify_weak_to_testing(ws, fv, c_weak)
            assert not report.passed and report.metadata["reason"] == "inf"
            assert report.rhs == math.inf
        bands = report.metadata["bands_per_level"][1]
        assert bands[int(band_index(top))] == [0] and bands[-1] == [1]

    def test_lhs_is_exact_supremum_beyond_enumeration(self):
        # 27 leaves carry 389,017,001 stopping times, too many to scan; a
        # 512-time sample reaches only about 0.83 of the supremum here
        rng = np.random.default_rng(5)
        space = make_tree_space(3, 3)
        seq = make_exponent_sequence([2.0, 3.0], 1.0 / 6.0, 0.5)
        weights = [random_positive(rng, space, np.e) for _ in range(3)]
        ws = make_weight_system(space, seq, weights[:2], weights[2])
        fv = FunctionVector(tuple(random_positive(rng, space, np.e**2) for _ in range(2)), None)
        report = verify_weak_to_testing(ws, fv, ap_constant(ws))
        assert report.lhs == pytest.approx(snell_testing_sup(ws, fv), rel=1e-12)
        assert report.metadata["stopping_sup"] == "exact"

    def test_chunks_of_the_band_stack_give_the_same_report(self, monkeypatch):
        # one band per chunk, ten bands per chunk and the default budget (one
        # chunk for all 52 bands here), for a passing and a failing constant
        rng = np.random.default_rng(94)
        space = make_tree_space(8, 2, rng.dirichlet(np.full(256, 4.0)))
        seq = make_exponent_sequence([2.0, 3.0, 4.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq)
        fv = FunctionVector(tuple(random_positive(rng, space, 1e3) for _ in range(3)),
                            random_leaf_mask(rng, space))
        default = weights_mod.SCAN_CHUNK_FLOATS
        for c_weak in (ap_constant(ws), 1e-3):
            reports = []
            for floats in (1, 10 * (seq.head_len + 1) * space.n_leaves, default):
                monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", floats)
                reports.append(verify_weak_to_testing(ws, fv, c_weak).to_json())
            assert reports[0] == reports[1] == reports[2]
            assert sum(map(len, reports[0]["metadata"]["bands_per_level"].values())) == 52
            assert reports[0]["pass"] is (c_weak != 1e-3)

    def test_band_stack_memory_stays_within_the_chunk_budget(self):
        # 4096 leaves and 13 levels: the factors of the whole band stack would
        # take about 18 MB; in chunks the peak is about 2 MB, within two chunk
        # budgets for a chunk and its temporaries plus four level matrices
        # for the band index of the whole matrix
        rng = np.random.default_rng(95)
        space = make_tree_space(12, 2, rng.dirichlet(np.full(4096, 4.0)))
        seq = make_exponent_sequence([2.0, 3.0, 4.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq)
        fv = FunctionVector(tuple(random_positive(rng, space, 1e3) for _ in range(3)), None)
        verify_weak_to_testing(ws, fv, 2.0)  # the cached per-pair parts, the reward included
        tracemalloc.start()
        try:
            report = verify_weak_to_testing(ws, fv, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_bands = sum(map(len, report.metadata["bands_per_level"].values()))
        stack = n_bands * space.n_leaves * 8 * (seq.head_len + 1)
        level_matrix = (space.depth + 1) * space.n_leaves * 8
        assert peak <= 2 * weights_mod.SCAN_CHUNK_FLOATS * 8 + 4 * level_matrix
        assert peak < stack / 5, (peak, stack)


class TestTestingToAp:
    def test_unit_recovers_one(self):
        space = make_tree_space(2, 2)
        ws = unit_weight_system(space, doubling_seq())
        report = verify_testing_to_ap(ws)
        assert report.passed
        assert report.lhs == 1.0
        assert report.metadata["ap_constant"] == 1.0

    def test_recovered_equals_ap_constant(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            ws = small_random_system(rng)
            report = verify_testing_to_ap(ws)
            assert report.passed
            assert report.lhs == pytest.approx(ap_constant(ws), rel=1e-12)

    def test_example_system(self):
        report = verify_testing_to_ap(example_system())
        assert report.passed

    def test_nan_ratio_fails_the_report(self, monkeypatch):
        # a NaN testing ratio on one atom must not be dropped by the maximum
        ws = small_random_system(np.random.default_rng(65))
        assert verify_testing_to_ap(ws).passed
        original, calls = TreeSpace.atom_sums, []

        def atom_sums(space, x, n):
            calls.append(n)
            out = original(space, x, n)
            return np.full_like(out, np.nan) if len(calls) == 2 else out

        monkeypatch.setattr(TreeSpace, "atom_sums", atom_sums)
        report = verify_testing_to_ap(ws)
        assert np.isnan(report.metadata["c_test_observed"])
        assert not report.passed

    def test_infinite_ratio_fails_the_report(self):
        # the norm sum of the light atom underflows to 0, so its ratio is
        # 1e-300 / 0 = inf; that atom and the report fail, reason "inf",
        # and no RuntimeWarning escapes
        space = make_tree_space(1, 2, [1.0 - 1e-300, 1e-300])
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        ws = make_weight_system(space, seq, [[1.0, 1e30]], [1.0, 1e30])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_testing_to_ap(ws)
        assert report.metadata["c_test_observed"] == np.inf
        assert report.metadata["reason"] == "inf"
        assert not report.passed

    def test_one_failing_atom_fails_the_report(self):
        # each atom is checked against its own ratio: a recovered value above
        # its atom's bound fails the report although the joint constant passes
        ws = small_random_system(np.random.default_rng(65))
        atoms = ws.ap_atoms.copy()
        leaf = ws.space.atom_offsets[-2] + int(np.argmin(ws.space.level(atoms, ws.space.depth)))
        scale = verify_testing_to_ap(ws).metadata["c_rh"] ** ws.seq.aggregate_reciprocal
        assert atoms[leaf] * scale < ws.ap_max  # a leaf atom of the last level
        atoms[leaf] = ws.ap_max
        ws.__dict__["ap_atoms"] = atoms  # the cached level values; ap_max is unchanged
        report = verify_testing_to_ap(ws)
        assert report.lhs == ws.ap_max and not report.passed

    def test_closed_form_matches_masked_vector_oracle(self, monkeypatch):
        # every atom's ratio rebuilt from the masked extremal family, on
        # systems with no active slot, finite families with head padding,
        # infinite tails and branching 3; the strict margin (tolerance -0.5)
        # fails the atoms of some systems, so both verdicts are compared
        seen = []

        def spy(lhs, bound, tolerance):
            seen.append((lhs, bound, _within_margin(lhs, bound, tolerance)))
            return seen[-1][2]

        monkeypatch.setattr(theorems_mod, "_within_margin", spy)
        rng = np.random.default_rng(66)
        verdicts = set()
        for k in range(48):
            space = random_space(rng, max_depth=2, branchings=(3 if k % 3 == 0 else 2,))
            seq = random_sequence(rng, max_head=3, allow_finite=False)
            if k % 2 == 0:
                seq = make_exponent_sequence(list(seq.head), 0.0)
            n_active = k % (seq.head_len + 1)
            weights = [random_positive(rng, space) for _ in range(n_active + 1)]
            ws = make_weight_system(space, seq, weights[:n_active], weights[n_active])
            rp = seq.aggregate_reciprocal
            oracle = []
            for n in space.levels:
                for j in range(space.n_atoms(n)):
                    mask = np.zeros(space.n_leaves, dtype=bool)
                    mask[space.atom_slice(n, j)] = True
                    fv = necessity_family_ap(ws, n, mask)
                    rows = level_products(space, fv, seq)
                    lhs = np.sum(space.leaf_probs * ws.v * rows[n] ** (1.0 / rp)) ** rp
                    oracle.append(lhs / norms_product_oracle(space, fv, seq, ws.active_weights))
            for tolerance in (REL_TOL, -0.5):
                seen.clear()
                report = verify_testing_to_ap(ws, tolerance=tolerance)
                [(recovered, bounds, atoms_ok)] = seen
                scale = report.metadata["c_rh"] ** rp
                np.testing.assert_allclose(bounds / scale, oracle, rtol=1e-12, atol=0.0)
                expected = _within_margin(recovered, np.array(oracle) * scale, tolerance)
                np.testing.assert_array_equal(atoms_ok, expected)
                assert report.passed == bool(expected.all())
                assert report.metadata["c_test_observed"] == pytest.approx(max(oracle), rel=1e-12)
                verdicts.update(expected.tolist())
        assert verdicts == {True, False}


class TestSawyerDecomposition:
    def test_constant_maximal_single_band(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        gv = function_vector(space, [np.full(2, 3.0)])
        trace = sawyer_decomposition(ws, gv)
        ks = {k for (k, _) in trace.cells}
        assert len(ks) == 1
        union = np.zeros(2, dtype=bool)
        for cell in trace.cells.values():
            union |= cell.b_mask
        assert union.all()

    def test_band_is_the_dyadic_slice_up_to_the_top_binade(self):
        values = np.array([0.0, 5e-324, 0.5, 1.0, 3.0, 4.0, 1e300, 1.7e308])
        trace = theorems_mod.SawyerTrace(-1075, 1023, {}, {}, values, [])
        for k in range(-1075, 1023):
            old = (values > 2.0**k) & (values <= 2.0 ** (k + 1))
            np.testing.assert_array_equal(trace.band(k), old)
        np.testing.assert_array_equal(trace.band(1023), values == 1.7e308)

    def test_zero_vector_empty_trace(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        trace = sawyer_decomposition(ws, function_vector(space, [np.zeros(2)]))
        assert trace.is_empty and len(trace.cells) == 0

    def test_hand_example_two_bands(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        gv = function_vector(space, [[4.0, 0.0]])
        trace = sawyer_decomposition(ws, gv)
        assert trace.k_lo == 0 and trace.k_hi == 1
        np.testing.assert_array_equal(trace.maximal_values, [4.0, 2.0])
        assert set(trace.cells) == {(0, -1), (1, -1)}
        cell0, cell1 = trace.cells[(0, -1)], trace.cells[(1, -1)]
        np.testing.assert_array_equal(cell0.b_mask, [False, True])
        np.testing.assert_array_equal(cell1.b_mask, [True, False])
        assert cell0.theta == pytest.approx(0.5) and cell1.theta == pytest.approx(0.5)
        assert cell0.t_value == pytest.approx(2.0) and cell1.t_value == pytest.approx(4.0)
        invariants = sawyer_trace_invariants(ws, trace)
        assert all(invariants.values())

    def test_invariants_random(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            ws = small_random_system(rng)
            gv = random_fvec(rng, ws.space, ws.seq)
            trace = sawyer_decomposition(ws, gv)
            invariants = sawyer_trace_invariants(ws, trace)
            assert all(invariants.values()), invariants

    def test_lambda_sets_inside_weighted_level_set(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            ws = small_random_system(rng)
            space, seq = ws.space, ws.seq
            gv = random_fvec(rng, space, seq)
            trace = sawyer_decomposition(ws, gv)
            if trace.is_empty:
                continue
            p = 1.0 / seq.aggregate_reciprocal
            sigmas = [ws.sigma_at(i) for i in range(max(gv.n_active, ws.n_active))]
            weighted_max = gen_weighted_maximal(space, gv, sigmas, seq)
            for lam, _, g_mask in trace.lambda_sets:
                assert np.all(weighted_max[g_mask] ** p > lam * (1 - 1e-12))

    def test_cells_of_a_stopped_density_in_no_band(self):
        # sigma = 1e-200 on leaf 0 for both weights: leaves 0 and 2 pass 8 at
        # their own level, where the stopped density underflows to 0.0 on
        # leaf 0 (in no band) and is 1 on leaf 2; band 3 then has the cells
        # (3, NO_BAND) and (3, -1), keyed and ordered (NO_BAND first) as the
        # per-slot oracle keys them
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        w = [1e200, 1.0, 1.0, 1.0]
        ws = make_weight_system(space, seq, [w, w], np.ones(4))
        gv = function_vector(space, [[4e200, 1e-10, 4.0, 1e-10]] * 2)
        trace = sawyer_decomposition(ws, gv)
        with np.errstate(over="ignore"):  # E^sigma(g_1) E^sigma(g_2) on leaf 0
            old = sawyer_trace_oracle(ws, gv)
        assert trace.to_json() == old.to_json() and list(trace.cells) == list(old.cells)
        assert list(trace.cells)[-2:] == [(3, theorems_mod.NO_BAND), (3, -1)]
        assert all(sawyer_trace_invariants(ws, trace).values())

    def test_trace_matches_the_per_slot_oracle_bit_for_bit(self):
        # the trace, its invariants (also on perturbed traces), stopped-field
        # membership and the necessity family's level check against the
        # per-slot, per-cell and per-level oracles; the oracle's T power may
        # overflow, which only the errstate keeps from raising
        rng = np.random.default_rng(90)
        covered, verdicts = set(), {}
        for k in range(80):
            ws, gv = extreme_case(rng, k)
            space, seq = ws.space, ws.seq
            with np.errstate(over="ignore"):
                old = sawyer_trace_oracle(ws, gv)
            new = sawyer_decomposition(ws, gv)
            np.testing.assert_array_equal(new.maximal_values, old.maximal_values)
            assert new.to_json() == old.to_json()
            assert list(new.cells) == list(old.cells)
            for key, cell in old.cells.items():
                assert new.cells[key].theta == cell.theta
                assert new.cells[key].t_value == cell.t_value
            for trace in (new, perturbed_trace(rng, new)):
                found = sawyer_trace_invariants(ws, trace)
                assert found == sawyer_invariants_oracle(ws, trace)
                for name, verdict in found.items():
                    verdicts.setdefault(name, set()).add(verdict)
            covered.update({
                "finite" if seq.is_finite_family else "infinite",
                *(["no weight"] if ws.n_active == 0 else []),
                *(["no component"] if gv.n_active == 0 else []),
                *(["empty"] if new.is_empty else []),
                *(["inf T"] if any(c.t_value == math.inf for c in new.cells.values()) else []),
            })

            for _ in range(3):
                tau = sample_stopping_time(space, rng)
                built = ~tau.finite & (rng.random(space.n_leaves) < 0.5)
                for n in space.levels:
                    built |= space.expand(rng.random(space.n_atoms(n)) < 0.5, n) & (tau.values == n)
                flipped = built.copy()
                flipped[rng.integers(space.n_leaves)] ^= True
                for mask in (built, flipped, rng.random(space.n_leaves) < 0.5):
                    verdict = is_stopped_measurable(space, tau, mask)
                    assert verdict == stopped_measurable_oracle(space, tau, mask)
                    verdicts.setdefault("measurable", set()).add(verdict)
            for n in space.levels:
                union = space.expand(rng.random(space.n_atoms(n)) < 0.5, n)
                for mask in (union, rng.random(space.n_leaves) < 0.5):
                    try:
                        necessity_family_ap(ws, n, mask)
                        verdict = True
                    except ValueError:
                        verdict = False
                    assert verdict == union_of_atoms_oracle(space, mask, n)
                    verdicts.setdefault("necessity", set()).add(verdict)
        assert covered == {"finite", "infinite", "no weight", "no component", "empty", "inf T"}
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts

    def test_block_and_chunk_budgets_give_the_same_trace(self, monkeypatch):
        # one band per passage block, three bands per block and the default
        # budget (one block for every band here), which also set the cells of
        # an invariant chunk (1, 3 and all): the same trace, the per-slot
        # oracle's, and under each budget the invariants of the trace and of
        # perturbed traces are the per-cell oracle's
        rng = np.random.default_rng(96)
        space = make_tree_space(8, 2, rng.dirichlet(np.full(256, 4.0)))
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq, spread=10.0)
        gv = FunctionVector(tuple(random_positive(rng, space, 1e4) for _ in range(2)), None)
        with np.errstate(over="ignore"):
            oracle = sawyer_trace_oracle(ws, gv)
        assert oracle.k_hi - oracle.k_lo + 1 >= 6 and len(oracle.cells) >= 12
        default, verdicts = weights_mod.SCAN_CHUNK_FLOATS, set()
        for floats in (space.n_leaves, 3 * space.n_leaves, default):
            monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", floats)
            trace = theorems_mod._sawyer_trace.__wrapped__(ws, gv)
            assert trace.to_json() == oracle.to_json() and list(trace.cells) == list(oracle.cells)
            np.testing.assert_array_equal(trace.maximal_values, oracle.maximal_values)
            for key, cell in oracle.cells.items():
                assert (trace.cells[key].theta, trace.cells[key].t_value) == (
                    cell.theta, cell.t_value)
            assert [(lam, keys) for lam, keys, _ in trace.lambda_sets] == [
                (lam, keys) for lam, keys, _ in oracle.lambda_sets]
            for (_, _, g), (_, _, g_oracle) in zip(trace.lambda_sets, oracle.lambda_sets):
                np.testing.assert_array_equal(g, g_oracle)
            for t in (trace, *(perturbed_trace(rng, trace) for _ in range(4))):
                found = sawyer_trace_invariants(ws, t)
                assert found == sawyer_invariants_oracle(ws, t)
                verdicts.add(all(found.values()))
        assert verdicts == {True, False}

    def test_trace_and_invariants_memory_stay_within_the_block_budget(self, monkeypatch):
        # 4,096 leaves at one band per passage block and one cell per invariant
        # chunk (37 cells, 10 times): above the arrays the trace keeps (a time
        # per band, three masks per cell), the peak stays within three block
        # budgets and 14 level vectors (about 11 are used: the per-atom rows
        # and pair, and one block's entries).  Entries concatenated over all
        # bands (about 27), or masks and times stacked over all cells (over
        # 150), would not
        rng = np.random.default_rng(97)
        space = make_tree_space(12, 2, rng.dirichlet(np.full(4096, 4.0)))
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        ws = random_weight_system(rng, space, seq)
        gv = FunctionVector(tuple(random_positive(rng, space, 1e3) for _ in range(2)), None)
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", space.n_leaves)
        sawyer_trace_invariants(ws, sawyer_decomposition(ws, gv))  # the system's caches
        theorems_mod._sawyer_trace.cache_clear()
        tracemalloc.start()
        try:
            trace = sawyer_decomposition(ws, gv)
            sawyer_trace_invariants(ws, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        level = space.n_leaves * 8
        assert len(trace.cells) >= 30
        kept = len(trace.taus) * level + 3 * len(trace.cells) * space.n_leaves
        assert peak <= kept + 3 * weights_mod.SCAN_CHUNK_FLOATS * 8 + 14 * level, (
            (peak - kept) / level)

    def test_top_binade_has_two_cells_and_no_overflow(self):
        # tau_1024 passes 2**1024 = inf, so it never stops
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        trace = sawyer_decomposition(ws, function_vector(space, [[1.7e308, 1.0]]))
        assert (trace.k_lo, trace.k_hi) == (1022, 1023)
        assert set(trace.cells) == {(1022, -1), (1023, -1)}
        assert not trace.taus[1024].finite.any()
        assert all(sawyer_trace_invariants(ws, trace).values())

    def test_overflowed_power_is_inf_not_an_error(self):
        # p = 1.5, so the T of both cells, (5e249)**1.5 and (1e250)**1.5, is inf
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, make_exponent_sequence([1.5], 0.0))
        trace = sawyer_decomposition(ws, function_vector(space, [[1e250, 1.0]]))
        assert [c.t_value for c in trace.cells.values()] == [math.inf, math.inf]
        assert all(sawyer_trace_invariants(ws, trace).values())

    def test_overflowed_maximal_function_fails_the_trace(self):
        # the level products (5e199 + 0.5)**2 overflow: the maximal function
        # is inf on both leaves, in band 1023, and the trace is not finite
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, make_exponent_sequence([2.0, 2.0], 0.0), 2)
        gv = function_vector(space, [[1e200, 1.0], [1e200, 1.0]])
        trace = sawyer_decomposition(ws, gv)
        assert list(trace.maximal_values) == [math.inf, math.inf]
        assert (trace.k_lo, trace.k_hi) == (1023, 1023)
        assert not trace.taus[1024].finite.any()
        invariants = sawyer_trace_invariants(ws, trace)
        assert invariants.pop("maximal_finite") is False
        assert all(invariants.values())
        report = verify_sp_to_strong(ws, gv, 1.0, 1.0)
        assert not report.passed and report.metadata["reason"] == "inf"

    def test_trace_json_serializes(self):
        import json

        ws = example_system()
        gv = function_vector(ws.space, [[4.0, 0.0]])
        trace = sawyer_decomposition(ws, gv)
        json.dumps(trace.to_json())


class TestKeptSawyerTrace:
    def test_one_build_per_system_and_vector(self, monkeypatch):
        # verify_sp_to_strong reads the trace sawyer_decomposition has just
        # built for the same pair; a new vector builds afresh
        rng = np.random.default_rng(93)
        ws = small_random_system(rng)
        gv, other = (random_fvec(rng, ws.space, ws.seq) for _ in range(2))
        calls, original = [], theorems_mod._strong_rows

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(theorems_mod, "_strong_rows", counted)
        theorems_mod._sawyer_trace.cache_clear()
        trace = sawyer_decomposition(ws, gv)
        report = verify_sp_to_strong(ws, gv, 1.0, 1.0)
        assert calls == [gv] and sawyer_decomposition(ws, gv) is trace
        assert report.metadata["n_cells"] == len(trace.cells)
        assert trace.to_json() == theorems_mod._sawyer_trace.__wrapped__(ws, gv).to_json()
        assert sawyer_decomposition(ws, other) is not trace and calls[-1] is other
        masked = FunctionVector(gv.active, random_leaf_mask(rng, ws.space))
        with pytest.raises(ValueError, match="masked vectors"):
            sawyer_decomposition(ws, masked)

    def test_kept_trace_arrays_are_read_only(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        trace = sawyer_decomposition(ws, function_vector(space, [[4.0, 0.0]]))
        assert trace.cells and trace.lambda_sets
        arrays = [trace.maximal_values, *(g for _, _, g in trace.lambda_sets)]
        for cell in trace.cells.values():
            arrays += [cell.a_mask, cell.b_mask]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


class TestSpToStrong:
    def test_unit_constant_value(self):
        space = make_tree_space(2, 2)
        seq = doubling_seq()
        ws = unit_weight_system(space, seq)
        rng = np.random.default_rng(67)
        gv = function_vector(space, [random_positive(rng, space)])
        report = verify_sp_to_strong(ws, gv, 1.0, 1.0)
        assert report.passed
        assert report.constant == pytest.approx(4.0 * conjugate_product(seq).hi, rel=1e-14)

    def test_zero_vector(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        report = verify_sp_to_strong(ws, function_vector(space, [np.zeros(2)]), 1.0, 1.0)
        assert report.passed and report.lhs == 0.0

    def test_all_ones_vector(self):
        rng = np.random.default_rng(68)
        ws = small_random_system(rng)
        ones = np.ones(ws.space.n_leaves)
        gv = FunctionVector((ones,) * ws.n_active, None)
        report = verify_sp_to_strong(ws, gv, sp_constant(ws), rh_constant(ws))
        assert report.passed and report.metadata["trace_pass"]

    def test_infinite_trace_bound_fails(self):
        # the trace bound 4 * sum T theta overflows to inf; it used to pass
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        report = verify_sp_to_strong(ws, function_vector(space, [[1.7e308, 1.0]]), 1.0, 1.0)
        assert report.metadata["trace_rhs"] == math.inf
        assert not report.metadata["trace_pass"]
        assert not report.passed and report.metadata["reason"] == "inf"

    def test_overflowed_maximal_power_fails_with_a_reason(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, make_exponent_sequence([1.5], 0.0))
        report = verify_sp_to_strong(ws, function_vector(space, [[1e250, 1.0]]), 1.0, 1.0)
        assert report.lhs == math.inf
        assert not report.passed and report.metadata["reason"] == "inf"

    def test_random_suite(self):
        rng = np.random.default_rng(69)
        for _ in range(30):
            ws = small_random_system(rng)
            c_s, c_rh = sp_constant(ws), rh_constant(ws)
            gv = random_fvec(rng, ws.space, ws.seq)
            report = verify_sp_to_strong(ws, gv, c_s, c_rh)
            assert report.passed and report.metadata["trace_pass"]


class TestEstimates:
    def test_unknown_id_rejected(self):
        ws = example_system()
        with pytest.raises(ValueError):
            estimate_best_constant("nope", ws, 2, 0)

    def test_unit_testing_at_least_one(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        assert estimate_best_constant("testing", ws, 1, 123) >= 1.0 - 1e-12

    def test_monotone_in_trials(self):
        ws = example_system()
        values = [estimate_best_constant("testing", ws, t, 9) for t in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_deterministic(self):
        ws = example_system()
        a = estimate_best_constant("strong", ws, 5, 11)
        b = estimate_best_constant("strong", ws, 5, 11)
        assert a == b

    def test_snell_matches_enumeration(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            ws = small_random_system(rng)
            fv = random_fvec(rng, ws.space, ws.seq)
            rows = level_products(ws.space, fv, ws.seq)
            p = 1.0 / ws.seq.aggregate_reciprocal
            brute = max(
                stopped_reward_oracle(ws, rows, tau, p)
                for tau in enumerate_stopping_times(ws.space)
            )
            assert snell_testing_sup(ws, fv) == pytest.approx(brute, rel=1e-12)

    def test_weak_estimate_builds_the_level_products_once_per_trial(self, monkeypatch):
        # the weak ratio builds its own per-atom level products and norm
        # product (a fresh vector each trial, so the cached per-pair reward
        # would be waste): one level_product_atoms call per trial vector, by
        # either module binding, and no _testing_parts entry
        rng = np.random.default_rng(75)
        ws = small_random_system(rng)
        space, seq = ws.space, ws.seq
        calls = []
        original = theorems_mod.level_product_atoms

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(theorems_mod, "level_product_atoms", counted)
        monkeypatch.setattr(maximal_mod, "level_product_atoms", counted)
        theorems_mod._testing_parts.cache_clear()
        estimate = estimate_best_constant("weak", ws, 5, 3)
        assert len(calls) == 5 and len({id(fv) for fv in calls}) == 5
        assert theorems_mod._testing_parts.cache_info().misses == 0
        monkeypatch.undo()
        fvecs = [trial_vector(space, seq.head_len, 3, t, 1e3) for t in range(5)]
        fvecs[2] = FunctionVector(tuple(ws.sigma_at(i) for i in range(seq.head_len)), None)
        p = 1.0 / seq.aggregate_reciprocal
        assert estimate == max(
            weak_lp_norm(space, gen_doob_maximal(space, fv, seq), p, ws.v)
            / function_norms_product(space, fv, seq, ws.active_weights) for fv in fvecs)

    @pytest.mark.parametrize("shape", [*SHAPES, (4, 2), (5, 2), (3, 4)], ids=shape_id)
    def test_strong_estimate_matches_the_per_trial_oracle(self, shape):
        # every trial in one (trials, leaves) stack, bit for bit the per-trial
        # loop, ratio by ratio: head lengths 1-3, finite and infinite tails, 0
        # to a full head of weights, 1 to 6 and 16 trials; from 16 leaves
        # trial 2 takes the 256-sample family's witness
        depth, branching = shape
        rng = np.random.default_rng([91, depth, branching])
        for k in range(6):
            n = branching**depth
            space = make_tree_space(depth, branching, rng.dirichlet(np.full(n, 4.0)))
            head = list(rng.uniform(1.2, 6.0, 1 + k % 3))
            seq = make_exponent_sequence(head, *((0.0,) if k % 2 else (0.3, 0.6)))
            weights = [random_positive(rng, space, 3.0) for _ in range(rng.integers(len(head) + 1))]
            ws = make_weight_system(space, seq, weights, random_positive(rng, space, 3.0))
            for trials in (1, 2, 3, 4, 5, 6, 16):
                if trials > 2 and n >= 1024:
                    # the witness family's sampler (sample_stopping_time)
                    # overflows a float from binary depth 10 on: both raise
                    for ratios_of in (theorems_mod._strong_ratios, helpers.strong_ratios_oracle):
                        with pytest.raises(OverflowError):
                            ratios_of(ws, trials, k)
                    continue
                ratios = theorems_mod._strong_ratios(ws, trials, k)
                assert ratios == helpers.strong_ratios_oracle(ws, trials, k)
                assert estimate_best_constant("strong", ws, trials, k) == max(ratios)

    def test_strong_estimate_of_a_unit_system_and_with_no_witness(self, monkeypatch):
        space = make_tree_space(2, 2)
        for seq in (doubling_seq(), make_exponent_sequence([2.0, 3.0], 0.0)):
            ws = unit_weight_system(space, seq, seq.head_len)
            for trials in (1, 3, 6):
                assert estimate_best_constant("strong", ws, trials, 4) == strong_estimate_oracle(
                    ws, trials, 4)
        # every testing ratio underflows to 0, so the scan keeps no witness and
        # trial 2 is the unmasked all-ones vector
        ws = make_weight_system(space, doubling_seq(), [np.full(4, 1e30)], np.full(4, 1e-300))
        assert weights_mod.sp_constant_argmax(ws) == (0.0, None)
        assert estimate_best_constant("strong", ws, 6, 4) == strong_estimate_oracle(ws, 6, 4)
        # a witness of None on a system with positive ratios: trial 2 stays
        # unmasked and unpadded, the all-ones vector of trial 0 (None written
        # into a bool mask row would make it all false, and the ratio 0)
        ws = example_system()
        for module in (theorems_mod, helpers):
            monkeypatch.setattr(module, "sp_constant_argmax", lambda *a: (0.0, None))
        ratios = theorems_mod._strong_ratios(ws, 6, 4)
        assert ratios[2] == ratios[0] > 0.0
        assert ratios == helpers.strong_ratios_oracle(ws, 6, 4)
        assert estimate_best_constant("strong", ws, 6, 4) == strong_estimate_oracle(ws, 6, 4)

    def test_strong_norm_factors_of_inf_and_0_give_a_nan_ratio(self):
        # one leaf, p_1 = p_2 = 150: trial 5 of seed 3 draws g = (0.0066,
        # 200.7), whose norm factors underflow to 0 and overflow to inf; their
        # product on Python floats is NaN, with no warning, and the NaN ratio
        # is the estimate
        space = make_tree_space(0, 2)
        ws = unit_weight_system(space, make_exponent_sequence([150.0, 150.0], 0.0), 2)
        with np.errstate(over="ignore"):
            assert [float(g[0] ** 150.0) for g in trial_vector(space, 2, 3, 5, 1e3).active] == [
                0.0, math.inf]
        ratios = theorems_mod._strong_ratios(ws, 6, 3)
        assert [math.isnan(r) for r in ratios] == [False] * 5 + [True]
        assert math.isnan(estimate_best_constant("strong", ws, 6, 3))
        with np.errstate(invalid="ignore"):  # the oracle's np.float64 inf * 0 warns
            np.testing.assert_array_equal(ratios, helpers.strong_ratios_oracle(ws, 6, 3))

    def test_nan_norm_product_propagates_in_every_form(self, monkeypatch):
        # one ratio rule, 0.0 if rhs <= 0.0 else lhs / rhs: a NaN right side
        # is not taken for a vanishing one
        ws = example_system()
        # the strong trials take their norm products from the stacked pass
        monkeypatch.setattr(theorems_mod, "_row_norms_products",
                            lambda *a, **k: [math.nan] * len(a[-1]))
        assert np.isnan(estimate_best_constant("strong", ws, 3, 5))
        # the weak trials call function_norms_product themselves, the testing
        # trials read it from _testing_parts, which forms it by _norms_product
        # and is cleared so that it is recomputed
        monkeypatch.setattr(theorems_mod, "function_norms_product", lambda *a, **k: math.nan)
        assert np.isnan(estimate_best_constant("weak", ws, 3, 5))
        monkeypatch.setattr(theorems_mod, "_norms_product", lambda *a, **k: math.nan)
        theorems_mod._testing_parts.cache_clear()
        assert np.isnan(estimate_best_constant("testing", ws, 3, 5))
        theorems_mod._testing_parts.cache_clear()

    def test_nan_ratio_propagates(self, monkeypatch):
        # the four trial supports go to one sp_ratios call; a NaN ratio of
        # the second is the estimate
        ws = example_system()
        original, calls = theorems_mod.sp_ratios, []

        def ratios(ws_, masks):
            calls.append(masks)
            out = original(ws_, masks)
            out[1] = math.nan
            return out

        monkeypatch.setattr(theorems_mod, "sp_ratios", ratios)
        assert np.isnan(estimate_best_constant("sp-test", ws, 4, 5))
        assert [m.shape for m in calls] == [(4, ws.space.n_leaves)]

    def test_all_family_scans_run_once_per_system(self, monkeypatch):
        # sp_constant and the strong estimate (trial 2 takes the testing
        # witness) share one cached "all" testing scan, and testing-to-ap
        # makes the one RH scan (nothing else needs C_RH, so it is not
        # cached); 255 supports in 40-row chunks is 7 chunks
        rng = np.random.default_rng(74)
        space = make_tree_space(3, 2, rng.dirichlet(np.full(8, 4.0)))
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        w = [random_positive(rng, space, 3.0) for _ in range(2)]
        v = random_positive(rng, space, 3.0)
        ws = make_weight_system(space, seq, w, v)
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 40 * 8)
        calls = {"_sp_rows": 0, "_rh_rows": 0}

        def counting(name):
            original = getattr(weights_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(weights_mod, name, wrapper)

        counting("_sp_rows")
        counting("_rh_rows")
        c_s = sp_constant(ws)
        estimate = estimate_best_constant("strong", ws, 4, 9)
        report = verify_testing_to_ap(ws).to_json()
        assert calls == {"_sp_rows": 7, "_rh_rows": 7}
        monkeypatch.undo()
        fresh = make_weight_system(space, seq, w, v)
        assert c_s == sp_constant(fresh)
        assert estimate == estimate_best_constant("strong", fresh, 4, 9)
        assert report == verify_testing_to_ap(fresh).to_json()

    def test_sp_test_estimate_bounded_by_constant(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ws = small_random_system(rng)
            est = estimate_best_constant("sp-test", ws, 8, 5)
            assert est <= sp_constant(ws) * (1 + 1e-12)


class TestEquivalenceCoherence:
    def test_first_theorem_chain(self):
        rng = np.random.default_rng(72)
        for _ in range(15):
            ws = small_random_system(rng)
            c_a = ap_constant(ws)
            c_rh = rh_constant(ws)
            rp = ws.seq.aggregate_reciprocal
            est_testing = estimate_best_constant("testing", ws, 6, 1)
            est_weak = estimate_best_constant("weak", ws, 6, 1)
            assert est_testing <= c_a * (1 + 1e-12)
            assert est_weak <= c_a * (1 + 1e-12)
            recovered = verify_testing_to_ap(ws)
            assert recovered.lhs <= recovered.metadata["c_test_observed"] * c_rh**rp * (
                1 + 1e-12
            )

    def test_second_theorem_chain(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            ws = small_random_system(rng)
            c_s, c_rh = sp_constant(ws), rh_constant(ws)
            rp = ws.seq.aggregate_reciprocal
            c_final = 4.0 * c_s * c_rh**rp * conjugate_product(ws.seq).hi
            est_strong = estimate_best_constant("strong", ws, 6, 2)
            assert est_strong <= c_final * (1 + 1e-12)
            assert c_s <= est_strong * (1 + 1e-12)


def _masked_system_and_vector():
    space = make_tree_space(1, 2)
    ws = unit_weight_system(space, make_exponent_sequence([2.0], 0.5, 0.5))
    return ws, function_vector(space, [[1.0, 2.0]], [True, False])


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: sawyer_decomposition(*_masked_system_and_vector()), "masked vectors"),
        (lambda: estimate_best_constant("testing", _masked_system_and_vector()[0], 0, 0),
         "trials must be >= 1"),
    ],
    ids=["sawyer-masked", "estimate-no-trials"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
