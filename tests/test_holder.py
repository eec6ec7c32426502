import math

import numpy as np
import pytest

from martbench.exponents import make_exponent_sequence
from martbench.filtration import make_tree_space
from martbench.holder import (
    FunctionVector,
    function_norms_product,
    function_vector,
    function_vector_from_json,
    holder_conditional_check,
    holder_integral_check,
    level_products,
    lp_norm,
    product_function,
)

from helpers import random_fvec, random_sequence, random_space, two_function_holder_oracle


class TestLpNorm:
    def test_indicator_like(self):
        space = make_tree_space(1, 2)
        assert lp_norm(space, np.array([2.0, 0.0]), 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    def test_constant_function_gives_weight_mass(self):
        space = make_tree_space(1, 2)
        weight = np.array([2.0, 6.0])
        for p in (0.5, 1.0, 3.0):
            assert lp_norm(space, np.ones(2), p, weight) == pytest.approx(
                4.0 ** (1.0 / p), rel=1e-12
            )

    def test_zero_function(self):
        space = make_tree_space(1, 2)
        assert lp_norm(space, np.zeros(2), 1.5) == 0.0

    def test_sub_unit_exponent_supported(self):
        space = make_tree_space(1, 2)
        assert lp_norm(space, np.array([1.0, 4.0]), 0.5) == pytest.approx(
            (0.5 * 1.0 + 0.5 * 2.0) ** 2.0, rel=1e-12
        )

    def test_rejects_nonpositive_weight(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            lp_norm(space, np.ones(2), 2.0, np.array([1.0, 0.0]))


class TestProductFunction:
    def test_pointwise_product(self):
        space = make_tree_space(1, 2)
        fv = function_vector(space, [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(product_function(space, fv), [0.0, 0.0])

    def test_empty_active_is_one(self):
        space = make_tree_space(1, 2)
        fv = function_vector(space, [])
        np.testing.assert_array_equal(product_function(space, fv), [1.0, 1.0])

    def test_mask_kills_complement(self):
        space = make_tree_space(1, 2)
        fv = function_vector(space, [[3.0, 3.0]], mask=[True, False])
        np.testing.assert_array_equal(product_function(space, fv), [3.0, 0.0])

    def test_rejects_negative_component(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            function_vector(space, [[-1.0, 1.0]])

    def test_json_round_trip(self):
        space = make_tree_space(1, 2)
        fv = function_vector(space, [[1.0, 2.0]], mask=[True, False])
        again = function_vector_from_json(space, fv.to_json())
        np.testing.assert_array_equal(again.active[0], fv.active[0])
        np.testing.assert_array_equal(again.mask, fv.mask)


class TestIntegralCheck:
    def test_hand_example(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[2.0, 0.0]])
        report = holder_integral_check(space, fv, seq)
        assert report.passed
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.rhs == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_all_ones_equality(self):
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 4.0], 0.25, 0.5)
        fv = function_vector(space, [np.ones(4), np.ones(4)])
        report = holder_integral_check(space, fv, seq)
        assert abs(report.lhs - report.rhs) <= 1e-12

    def test_proportional_powers_equality(self):
        # f1 = f2 = scaled indicator with p1 = p2 = 2 is the equality case
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        f = np.array([3.0, 3.0, 0.0, 0.0])
        fv = function_vector(space, [f, f])
        report = holder_integral_check(space, fv, seq)
        assert abs(report.lhs - report.rhs) <= 1e-12 * report.rhs

    def test_two_function_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            space = random_space(rng)
            p1, p2 = rng.uniform(1.2, 6.0, 2)
            seq = make_exponent_sequence([p1, p2], 0.0)
            f1 = np.exp(rng.uniform(-2, 2, space.n_leaves))
            f2 = np.exp(rng.uniform(-2, 2, space.n_leaves))
            report = holder_integral_check(space, function_vector(space, [f1, f2]), seq)
            lhs, rhs = two_function_holder_oracle(space, f1, f2, p1, p2)
            assert report.passed
            assert report.lhs == pytest.approx(lhs, rel=1e-12)
            assert report.rhs == pytest.approx(rhs, rel=1e-12)

    def test_unit_component_changes_nothing(self):
        rng = np.random.default_rng(21)
        space = random_space(rng)
        seq = make_exponent_sequence([2.0, 3.0, 4.0], 0.1, 0.5)
        f = np.exp(rng.uniform(-1, 1, space.n_leaves))
        short = holder_integral_check(space, function_vector(space, [f]), seq)
        padded = holder_integral_check(
            space, function_vector(space, [f, np.ones(space.n_leaves)]), seq
        )
        assert short.lhs == padded.lhs and short.rhs == padded.rhs

    def test_alignment_enforced(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [np.ones(2), np.ones(2)])
        with pytest.raises(ValueError):
            holder_integral_check(space, fv, seq)


class TestConditionalCheck:
    def test_depth_one_example(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0, 4.0], 0.25, 0.5)
        fv = function_vector(space, [[2.0, 0.0], [1.0, 1.0]])
        report = holder_conditional_check(space, fv, seq, 0)
        assert report.passed
        assert report.lhs == pytest.approx(1.0, rel=1e-12)
        assert report.rhs == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_finest_level_equality(self):
        rng = np.random.default_rng(22)
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 3.0], 1.0 / 6.0, 0.5)
        fv = function_vector(
            space, [np.exp(rng.uniform(-1, 1, 4)), np.exp(rng.uniform(-1, 1, 4))]
        )
        report = holder_conditional_check(space, fv, seq, 2)
        assert report.passed
        assert abs(report.lhs - report.rhs) <= 1e-12 * report.rhs

    def test_root_matches_integral_verdict(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            space = random_space(rng)
            seq = random_sequence(rng)
            fv = random_fvec(rng, space, seq)
            conditional = holder_conditional_check(space, fv, seq, 0)
            integral = holder_integral_check(space, fv, seq)
            assert conditional.passed and integral.passed

    def test_level_out_of_range(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        with pytest.raises(ValueError):
            holder_conditional_check(space, function_vector(space, []), seq, 5)


class TestNormIdentity:
    def test_norm_through_conditional_power(self):
        # ||f||_{p_i} equals || E_n(f**p_i)**(1/p_i) ||_{p_i} at every level
        rng = np.random.default_rng(24)
        from martbench.filtration import cond_exp

        for _ in range(100):
            space = random_space(rng)
            f = np.exp(rng.uniform(-2, 2, space.n_leaves))
            p_i = float(rng.uniform(1.2, 5.0))
            base = lp_norm(space, f, p_i)
            for n in space.levels:
                inner = cond_exp(space, f**p_i, n) ** (1.0 / p_i)
                assert lp_norm(space, inner, p_i) == pytest.approx(base, rel=1e-12)


class TestMaskedTails:
    def test_masked_norms_aggregate_mass(self):
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 4.0], 0.25, 0.5)
        mask = np.array([True, True, True, False])
        fv = FunctionVector((np.ones(4), np.ones(4)), mask)
        got = function_norms_product(space, fv, seq)
        q = 0.75  # mass of the mask
        assert got == pytest.approx(q ** (0.5 + 0.25 + 0.25), rel=1e-12)

    def test_masked_padding_in_level_products(self):
        # one active component, finite family of two exponents: the padded
        # slot contributes one masked conditional expectation
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        mask = np.array([True, False])
        f = np.array([3.0, 5.0])
        fv = FunctionVector((f,), mask)
        rows = level_products(space, fv, seq)
        from martbench.filtration import cond_exp_matrix

        expected = cond_exp_matrix(space, f * mask) * cond_exp_matrix(
            space, mask.astype(float)
        )
        np.testing.assert_allclose(rows, expected, rtol=1e-14)

    def test_masked_tail_needs_whole_atom_despite_rounding(self):
        # E_0(chi_Q) rounds to exactly 1.0 although Q misses a leaf; the
        # infinite tail must still vanish on the root atom
        space = make_tree_space(1, 2, [1.0, 1e-300])
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = FunctionVector((np.array([2.0, 3.0]),), np.array([True, False]))
        rows = level_products(space, fv, seq)
        np.testing.assert_array_equal(rows, [[0.0, 0.0], [2.0, 0.0]])
