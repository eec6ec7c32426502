import numpy as np
import pytest

from martbench.exponents import conjugate_product, make_exponent_sequence
from martbench.filtration import StoppingTime, enumerate_stopping_times, make_tree_space
from martbench.holder import FunctionVector, function_vector, level_products
from martbench.maximal import gen_weighted_maximal
from martbench.theorems import (
    _testing_lhs_pth,
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
    rh_constant,
    sp_constant,
    unit_weight_system,
)

from helpers import (
    random_fvec,
    random_positive,
    random_sequence,
    random_space,
    random_weight_system,
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

    def test_rejects_non_adapted(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = function_vector(space, [np.ones(2)])
        with pytest.raises(ValueError):
            verify_ap_to_testing(ws, fv, StoppingTime(np.array([0, 1])))


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

    def test_trace_json_serializes(self):
        import json

        ws = example_system()
        gv = function_vector(ws.space, [[4.0, 0.0]])
        trace = sawyer_decomposition(ws, gv)
        json.dumps(trace.to_json())


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
                _testing_lhs_pth(ws, rows, tau, p)
                for tau in enumerate_stopping_times(ws.space)
            )
            assert snell_testing_sup(ws, fv) == pytest.approx(brute, rel=1e-12)

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
