import numpy as np
import pytest

from martbench.exponents import make_exponent_sequence
from martbench.filtration import enumerate_stopping_times, make_tree_space
from martbench.holder import product_function
import martbench.weights as weights_mod
from martbench.weights import (
    ap_constant,
    make_weight_system,
    necessity_family_ap,
    rh_constant,
    rh_support_ratio,
    sp_constant,
    sp_constant_argmax,
    sp_support_ratio,
    support_family,
    unit_weight_system,
    weight_system_from_json,
)

from helpers import random_sequence, random_space, random_weight_system


def doubling_seq():
    return make_exponent_sequence([2.0], 0.5, 0.5)


class TestConstruction:
    def test_unit_system_sigmas(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        np.testing.assert_array_equal(ws.sigmas[0], [1.0, 1.0])
        assert ws.assumptions["finite"]

    def test_dual_density(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        np.testing.assert_allclose(ws.sigmas[0], [1.0, 0.25])

    def test_rejects_zero_weight(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            make_weight_system(space, doubling_seq(), [np.array([1.0, 0.0])], np.ones(2))

    def test_rejects_unrepresentable_dual_density(self):
        # p = 1.01 raises the weights to the power -100: 1e-6 overflows and
        # 1e6 underflows
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([1.01], 0.5, 0.5)
        with pytest.raises(ValueError, match=r"sigma_0 for p_0 = 1\.01"):
            make_weight_system(space, seq, [np.array([1e-6, 1e6])], np.ones(2))

    def test_rejects_overflowing_sigma_norm(self):
        # p = 1.01: sigma = 10**308 is finite, but its L^p norm overflows
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([1.01], 0.5, 0.5)
        with pytest.raises(ValueError, match=r"sigma_0 for p_0 = 1\.01"):
            make_weight_system(space, seq, [np.array([10**-3.08, 1.0])], np.ones(2))

    def test_holds_read_only_copies(self):
        space = make_tree_space(2, 2, [0.1, 0.2, 0.3, 0.4])
        seq = make_exponent_sequence([2.0, 3.0], 1.0 / 6.0, 0.5)
        w = [np.array([1.0, 4.0, 2.0, 0.5]), np.array([3.0, 1.0, 0.25, 2.0])]
        v = np.array([1.0, 2.0, 0.5, 3.0])
        fresh = make_weight_system(space, seq, [x.copy() for x in w], v.copy())
        ws = make_weight_system(space, seq, w, v)
        w[0][:] = 9.0
        v[:] = 7.0
        assert ap_constant(ws) == ap_constant(fresh)
        for arr in (ws.v, ws.active_weights[0], ws.sigmas[1], ws.ap_rows, ws.sigma_matrices[0]):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        w[1][:] = 5.0  # after the cache is filled
        assert ap_constant(ws) == ap_constant(fresh)

    def test_rejects_misaligned(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            make_weight_system(
                space, doubling_seq(), [np.ones(2), np.ones(2)], np.ones(2)
            )

    def test_sigma_duality_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            space = random_space(rng)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            for i, (w, s) in enumerate(zip(ws.active_weights, ws.sigmas)):
                p_i = seq.head[i]
                np.testing.assert_allclose(w * s ** (p_i - 1.0), 1.0, rtol=1e-12)

    def test_json_round_trip(self):
        rng = np.random.default_rng(41)
        space = random_space(rng)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        again = weight_system_from_json(ws.to_json())
        np.testing.assert_allclose(again.v, ws.v)
        for a, b in zip(again.active_weights, ws.active_weights):
            np.testing.assert_allclose(a, b)


class TestApConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert ap_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        assert ap_constant(ws) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_v(self):
        rng = np.random.default_rng(42)
        space = random_space(rng)
        seq = doubling_seq()  # aggregate reciprocal 1, so the constant is linear in v
        ws = random_weight_system(rng, space, seq)
        scaled = make_weight_system(space, seq, list(ws.active_weights), 2.0 * ws.v)
        assert ap_constant(scaled) == 2.0 * ap_constant(ws)

    def test_scaling_v_general_exponent(self):
        rng = np.random.default_rng(43)
        space = random_space(rng)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        c = 3.0
        scaled = make_weight_system(space, seq, list(ws.active_weights), c * ws.v)
        rp = seq.aggregate_reciprocal
        assert ap_constant(scaled) == pytest.approx(c**rp * ap_constant(ws), rel=1e-12)


class TestSupportFamilies:
    def test_all_supports_count(self):
        space = make_tree_space(1, 2)
        assert len(support_family(space, "all")) == 3

    def test_sampled_supports_are_nonempty_and_deduped(self):
        space = make_tree_space(2, 2)
        fam = support_family(space, {"count": 200, "seed": 0})
        keys = {m.tobytes() for m in fam}
        assert len(keys) == len(fam)
        assert all(m.any() for m in fam)

    def test_supports_match_stopping_time_supports(self):
        # every enumerated stopping-time support appears in the full scan
        space = make_tree_space(1, 2)
        enumerated = {
            tau.support().tobytes()
            for tau in enumerate_stopping_times(space)
            if tau.support().any()
        }
        scanned = {m.tobytes() for m in support_family(space, "all")}
        assert enumerated == scanned


class TestRhConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert rh_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_single_factor_is_one(self):
        rng = np.random.default_rng(44)
        space = random_space(rng)
        seq = make_exponent_sequence([2.5], 0.0)
        ws = random_weight_system(rng, space, seq)
        assert rh_constant(ws) == pytest.approx(1.0, rel=1e-12)

    def test_at_least_one(self):
        # single-leaf supports give ratio 1, so the max is at least 1
        rng = np.random.default_rng(45)
        for _ in range(50):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            assert rh_constant(ws) >= 1.0 - 1e-12

    def test_sampled_below_full(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            full = rh_constant(ws, "all")
            sampled = rh_constant(ws, {"count": 40, "seed": 7})
            assert sampled <= full * (1 + 1e-12)

    def test_matches_stopping_time_scan(self):
        rng = np.random.default_rng(47)
        space = make_tree_space(2, 2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        via_taus = max(
            rh_support_ratio(ws, tau.support())
            for tau in enumerate_stopping_times(space)
            if tau.support().any()
        )
        assert rh_constant(ws, "all") == pytest.approx(via_taus, rel=1e-14)


class TestSpConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert sp_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_unit_finite_family_exact(self):
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        assert sp_constant(unit_weight_system(space, seq, n_active=2)) == 1.0

    def test_scaling_v(self):
        rng = np.random.default_rng(48)
        space = random_space(rng, max_depth=2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        c = 2.0
        scaled = make_weight_system(space, seq, list(ws.active_weights), c * ws.v)
        rp = seq.aggregate_reciprocal
        assert sp_constant(scaled) == pytest.approx(c**rp * sp_constant(ws), rel=1e-12)

    def test_sampled_below_full(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            full = sp_constant(ws, "all")
            sampled = sp_constant(ws, {"count": 40, "seed": 3})
            assert sampled <= full * (1 + 1e-12)

    def test_matches_stopping_time_scan(self):
        rng = np.random.default_rng(50)
        space = make_tree_space(2, 2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        via_taus = max(
            sp_support_ratio(ws, tau.support())
            for tau in enumerate_stopping_times(space)
            if tau.support().any()
        )
        assert sp_constant(ws, "all") == pytest.approx(via_taus, rel=1e-14)


class TestNecessityFamily:
    def test_whole_space_unit(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = necessity_family_ap(ws, 0, np.array([True, True]))
        np.testing.assert_array_equal(product_function(space, fv), [1.0, 1.0])

    def test_empty_set(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = necessity_family_ap(ws, 0, np.array([False, False]))
        np.testing.assert_array_equal(product_function(space, fv), [0.0, 0.0])

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        fv = necessity_family_ap(ws, 1, np.array([True, False]))
        np.testing.assert_allclose(product_function(space, fv), [1.0, 0.0])

    def test_rejects_non_measurable(self):
        space = make_tree_space(2, 2)
        ws = unit_weight_system(space, doubling_seq())
        with pytest.raises(ValueError):
            necessity_family_ap(ws, 1, np.array([True, False, False, False]))


class TestNanPropagation:
    """A NaN ratio on any support must reach the constant, not be skipped."""

    @staticmethod
    def nan_on_call(monkeypatch, name, k):
        original = getattr(weights_mod, name)
        seen = []

        def ratio(ws, support):
            seen.append(support)
            return float("nan") if len(seen) == k else original(ws, support)

        monkeypatch.setattr(weights_mod, name, ratio)
        return seen

    def test_sp_constant(self, monkeypatch):
        ws = random_weight_system(
            np.random.default_rng(60), make_tree_space(2, 2), doubling_seq()
        )
        seen = self.nan_on_call(monkeypatch, "sp_support_ratio", 3)
        value, witness = sp_constant_argmax(ws)
        assert np.isnan(value)
        assert witness is seen[2] and len(seen) == 3
        seen.clear()
        assert np.isnan(sp_constant(ws))

    def test_rh_constant(self, monkeypatch):
        ws = random_weight_system(
            np.random.default_rng(61), make_tree_space(2, 2), doubling_seq()
        )
        self.nan_on_call(monkeypatch, "rh_support_ratio", 1)
        assert np.isnan(rh_constant(ws))
