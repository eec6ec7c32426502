import math
import warnings
import weakref

import numpy as np
import pytest

import martbench.holder as holder_mod
import martbench.theorems as theorems_mod
from martbench.exponents import make_exponent_sequence
from martbench.filtration import make_tree_space
from martbench.holder import (
    FunctionVector,
    function_norms_product,
    function_vector,
    function_vector_from_json,
    holder_conditional_check,
    holder_integral_check,
    level_product_atoms,
    level_products,
    lp_norm,
    product_function,
    trial_vector,
)
from martbench.maximal import gen_doob_maximal, level_set_stopping_time
from martbench.report import REL_TOL, _within_margin, check_inequality
from martbench.theorems import verify_weak_to_testing
from martbench.weights import make_weight_system

from helpers import (
    SHAPES,
    full_atoms_oracle,
    level_verdict_oracle,
    masked_tail_products_oracle,
    norms_product_oracle,
    random_fvec,
    random_leaf_mask,
    random_positive,
    random_sequence,
    random_space,
    shape_id,
    two_function_holder_oracle,
)


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

    def test_holds_read_only_copies(self):
        f, mask = np.array([1.0, 2.0]), np.array([True, False])
        fv = FunctionVector((f,), mask)
        f[0], mask[1] = 5.0, True
        np.testing.assert_array_equal(fv.active[0], [1.0, 2.0])
        np.testing.assert_array_equal(fv.mask, [True, False])
        with pytest.raises(ValueError):
            fv.active[0][0] = 0.0
        with pytest.raises(ValueError):
            fv.mask[0] = False
        # read-only components are shared, not copied again
        again = FunctionVector(fv.active, fv.mask)
        assert again.active[0] is fv.active[0] and again.mask is fv.mask

    def test_rows_of_a_frozen_stack_are_kept_without_a_copy(self):
        # a read-only view is kept where the array owning its data is
        # read-only too; a read-only view of a writable array is copied
        stack = np.arange(6.0).reshape(2, 3).copy()
        stack.setflags(write=False)
        assert FunctionVector((stack[1],)).active[0].base is stack
        writable = np.arange(3.0)
        view = writable[:]
        view.setflags(write=False)
        kept = FunctionVector((view,)).active[0]
        assert kept.base is not writable and not kept.flags.writeable
        writable[0] = 9.0
        assert kept[0] == 0.0

    @pytest.mark.parametrize("mask", [[0.5, 1.0], [np.nan, 1.0], [2.0, 1.0], [-1, 0]],
                             ids=["half", "nan", "two", "minus-one"])
    def test_a_mask_entry_other_than_0_or_1_raises(self, mask):
        # a non-bool mask once meant two things at once: the level products
        # multiplied by its values, the masked tail read it as bools
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        with pytest.raises(ValueError, match="mask entries must be booleans or exactly 0 or 1"):
            gen_doob_maximal(space, FunctionVector((np.array([2.0, 2.0]),), np.array(mask)), seq)

    def test_a_float_mask_of_0s_and_1s_is_the_bool_mask_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for finite in (False, True):  # a finite family with a padded head slot
            space = random_space(rng, max_depth=3)
            seq = random_sequence(rng, max_head=3, allow_finite=False)
            if finite:
                seq = make_exponent_sequence([*seq.head, 2.0], 0.0)
            comps = tuple(random_positive(rng, space, 1e3) for _ in range(seq.head_len - finite))
            mask = random_leaf_mask(rng, space)
            mask.setflags(write=False)
            as_bool, as_float = FunctionVector(comps, mask), FunctionVector(comps, mask * 1.0)
            assert as_bool.mask is mask and as_float.mask.dtype == bool
            for kernel in (level_product_atoms, gen_doob_maximal):
                np.testing.assert_array_equal(kernel(space, as_float, seq),
                                              kernel(space, as_bool, seq), strict=True)
            assert (function_norms_product(space, as_float, seq)
                    == function_norms_product(space, as_bool, seq))

    def test_trial_components_are_frozen_draws(self):
        # the components are rows of one frozen block, kept without a copy:
        # trials 0 and 1 share one row across components (all ones, and the
        # first level-1 atom's indicator); later trials draw from
        # default_rng([seed, trial]) in component order, one row each
        space = make_tree_space(3, 2)
        chi = np.zeros(space.n_leaves)
        chi[space.atom_slice(1, 0)] = 1.0
        for trial in range(4):
            fv = trial_vector(space, 3, 7, trial, 1e3)
            assert not any(c.flags.writeable for c in fv.active)
            block = fv.active[0].base
            assert block.shape == (3 if trial >= 2 else 1, space.n_leaves)
            assert not block.flags.writeable and all(c.base is block for c in fv.active)
            if trial >= 2:
                rng = np.random.default_rng([7, trial])
                bound = math.log(1e3)
                for c in fv.active:
                    np.testing.assert_array_equal(
                        c, np.exp(rng.uniform(-bound, bound, space.n_leaves)))
            else:
                assert fv.active[0] is fv.active[1] is fv.active[2]
                want = np.ones(space.n_leaves) if trial == 0 else chi
                np.testing.assert_array_equal(fv.active[0], want)


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

    def test_overflowed_norm_product_fails_with_a_reason(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = holder_integral_check(space, function_vector(space, [[1e200, 1.0]]), seq)
        assert report.rhs == math.inf
        assert not report.passed and report.metadata["reason"] == "inf"

    def test_inf_times_zero_norm_factor_is_nan_without_a_warning(self):
        # 0.0066**150 underflows to 0 and 200.7**150 overflows to inf: the
        # norm product is inf * 0, NaN, taken on Python floats without
        # numpy's invalid-value warning
        space = make_tree_space(0, 2)
        seq = make_exponent_sequence([150.0, 150.0])
        fv = function_vector(space, [[0.0066], [200.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(function_norms_product(space, fv, seq))
            report = holder_integral_check(space, fv, seq)
        assert math.isnan(report.rhs)
        assert not report.passed and report.metadata["reason"] == "nan"

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

    def test_every_level_reads_one_kept_integrand(self, monkeypatch):
        # a check of every level of one (space, vector, sequence) builds both
        # sides of every level once, per atom and read-only, and each level's
        # report is the one a fresh build gives
        rng = np.random.default_rng(24)
        space = make_tree_space(3, 2)
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        fv, other = (random_fvec(rng, space, seq) for _ in range(2))
        calls, original = [], holder_mod.product_function

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(holder_mod, "product_function", counted)
        holder_mod._conditional_levels.cache_clear()
        reports = [holder_conditional_check(space, fv, seq, n).to_json() for n in space.levels]
        assert calls == [fv]
        holder_conditional_check(space, other, seq, 0)
        assert calls == [fv, other]
        sides = holder_mod._conditional_parts(space, other, seq)
        assert [a.shape for a in sides] == [(space.atom_offsets[-1],)] * 2
        assert not any(a.flags.writeable for a in sides)
        for n in space.levels:
            holder_mod._conditional_levels.cache_clear()
            assert holder_conditional_check(space, fv, seq, n).to_json() == reports[n]

    def test_sides_are_freed_once_the_verdicts_are_built(self, monkeypatch):
        # a check keeps only its report rows: both per-atom sides are gone
        # when it returns, a check of the same vector reads the kept rows and
        # builds nothing, and a failed build keeps nothing, so the next call
        # builds again
        rng = np.random.default_rng(25)
        space = make_tree_space(3, 2)
        seq = make_exponent_sequence([2.0, 3.0], 0.2, 0.5)
        fv, other = (random_fvec(rng, space, seq) for _ in range(2))
        holder_mod._conditional_levels.cache_clear()
        built, parts, product = [], holder_mod._conditional_parts, holder_mod.product_function

        def watched(*args):
            sides = parts(*args)
            built.append([weakref.ref(a) for a in sides])
            return sides

        monkeypatch.setattr(holder_mod, "_conditional_parts", watched)
        for n in space.levels:
            holder_conditional_check(space, fv, seq, n)
        assert len(built) == 1 and [ref() for ref in built[0]] == [None, None]
        holder_conditional_check(space, other, seq, 0)
        assert len(built) == 2 and [ref() for ref in built[1]] == [None, None]
        monkeypatch.setattr(holder_mod, "product_function", lambda *a: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            holder_conditional_check(space, fv, seq, 0)
        assert holder_mod._conditional_levels.cache_info().currsize == 0
        monkeypatch.setattr(holder_mod, "product_function", product)
        holder_conditional_check(space, fv, seq, 0)
        assert len(built) == 3

    def test_level_out_of_range(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        with pytest.raises(ValueError):
            holder_conditional_check(space, function_vector(space, []), seq, 5)

    def test_overflowed_atom_bound_fails_and_is_named(self):
        # (1e200)**2 overflows in the norm factor of atom 0; atom 1 passes,
        # and the report used to show it with pass: true
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = holder_conditional_check(space, function_vector(space, [[1e200, 1.0]]), seq, 1)
        assert not report.passed and report.metadata["reason"] == "inf"
        assert report.metadata["atom"] == 0
        assert report.lhs == 1e200 and report.rhs == math.inf

    def test_first_failing_atom_is_named(self):
        # a tolerance of -0.5 fails both equality atoms at the finest level,
        # atom 1 by more; the report shows the first failing atom, and when
        # all pass the one with the least slack
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[1.0, 3.0]])
        failing = holder_conditional_check(space, fv, seq, 1, tolerance=-0.5)
        assert not failing.passed and failing.metadata["atom"] == 0
        assert failing.lhs == 1.0 and "reason" not in failing.metadata
        passing = holder_conditional_check(space, fv, seq, 1)
        assert passing.passed and passing.metadata["atom"] == 0 and passing.lhs == 1.0
        passing = holder_conditional_check(space, function_vector(space, [[3.0, 1.0]]), seq, 1)
        assert passing.passed and passing.metadata["atom"] == 1 and passing.lhs == 1.0


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_one_verdict_pass_gives_every_level_its_own_slice_verdict(shape):
    # the verdicts and gaps of every atom are taken in one pass; each level's
    # report is the one a verdict on its own slice gives, field by field, at
    # the default tolerance (all pass) and at -0.5 (the leaf level fails:
    # there both sides are equal), for a trial vector, a masked one and one
    # that overflows on its first leaf (infinite sides, NaN gaps; at -0.5 the
    # margin of an infinite side is inf - inf / 2, NaN)
    space = make_tree_space(*shape)
    seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
    rng = np.random.default_rng(72)
    trial = trial_vector(space, 2, 5, 2, 1e3)
    huge = np.ones(space.n_leaves)
    huge[0] = 1e200
    vectors = [trial, FunctionVector(trial.active, random_leaf_mask(rng, space, allow_empty=True)),
               function_vector(space, [huge])]
    for fv in vectors:
        for tolerance in (REL_TOL, -0.5):
            reports = [holder_conditional_check(space, fv, seq, n, tolerance)
                       for n in space.levels]
            for n, report in enumerate(reports):
                lhs, rhs, atom = level_verdict_oracle(space, fv, seq, n, tolerance)
                expected = check_inequality(
                    "holder-conditional", lhs, rhs, tolerance=tolerance,
                    metadata={"level": n, "n_atoms": space.n_atoms(n), "atom": atom,
                              "space": space.digest})
                assert report.to_json() == expected.to_json()
            if fv is trial:
                assert all(r.passed for r in reports) == (tolerance == REL_TOL)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_an_infinite_side_under_a_negative_tolerance_fails_without_a_warning(shape):
    # at tolerance -0.5 the margin of an infinite right side is inf - inf, NaN:
    # every level fails at the atom holding leaf 0 (whose norm factor
    # overflows), with no invalid-value warning from the per-atom verdicts,
    # and the report says why
    space = make_tree_space(*shape)
    seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
    huge = np.ones(space.n_leaves)
    huge[0] = 1e200
    fv = function_vector(space, [huge])
    for n in space.levels:
        report = holder_conditional_check(space, fv, seq, n, tolerance=-0.5)
        assert not report.passed and report.rhs == math.inf
        assert report.metadata["atom"] == 0 and report.metadata["reason"] == "inf"


class TestKeepLast:
    def test_counts_hits_and_misses_and_clears_them(self):
        builds = []
        kept = holder_mod._keep_last(lambda *args: builds.append(args) or len(builds))
        assert kept.cache_info() == (0, 0, 1, 0)
        assert [kept(1), kept(1), kept(2), kept(1), kept(1)] == [1, 1, 2, 3, 3]
        assert kept.cache_info() == (2, 3, 1, 1) and builds == [(1,), (2,), (1,)]
        kept.cache_clear()
        assert kept.cache_info() == (0, 0, 1, 0)
        assert kept(1) == 4 and kept.cache_info().misses == 1


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

    def test_a_mask_stack_gives_the_single_mask_result_per_row(self):
        # a vector whose mask is a (B, leaves) stack: row b of
        # level_product_atoms, level_products and gen_doob_maximal is exactly
        # their result under mask b, NaN and the sign of zero included, for
        # infinite and finite families, all-true and all-false masks, and a
        # single vector mask intersected into every row; level_products gives
        # one (depth+1, leaves) matrix per mask, and level_set_stopping_time,
        # one first passage, refuses a stacked vector
        rng = np.random.default_rng(12)
        for k in range(30):
            space = random_space(rng, max_depth=3)
            seq = random_sequence(rng)
            fv = random_fvec(rng, space, seq)
            masks = rng.random((5, space.n_leaves)) < 0.6
            masks[0], masks[1] = True, False
            if k % 3 == 0:
                masks &= rng.random(space.n_leaves) < 0.8
            stacked = FunctionVector(fv.active, masks)
            assert level_products(space, stacked, seq).shape == (5, space.depth + 1, space.n_leaves)
            for operator in (level_product_atoms, level_products, gen_doob_maximal):
                stack = operator(space, stacked, seq)
                assert stack.shape[0] == len(masks)
                for mask, row in zip(masks, stack):
                    one = operator(space, FunctionVector(fv.active, mask), seq)
                    assert np.array_equal(row, one, equal_nan=True)
                    assert np.array_equal(np.signbit(row), np.signbit(one))
            with pytest.raises(ValueError, match="expected one vector, got a stack of 5"):
                level_set_stopping_time(space, stacked, seq, 1.0)

    def test_norms_ignore_an_overflowing_value_off_the_mask(self):
        # f**2 overflows only at the masked-out leaf: the norms mask f before
        # the power, so they stay finite and raise no overflow warning
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = FunctionVector((np.array([1e200, 2.0]),), np.array([False, True]))
        assert function_norms_product(space, fv, seq) == pytest.approx(
            norms_product_oracle(space, fv, seq), rel=1e-12)
        report = holder_conditional_check(space, fv, seq, 0)  # E_0(4 chi_Q)**0.5 E_0(chi_Q)**0.5
        assert report.passed and report.rhs == pytest.approx(1.0, rel=1e-12)

    def test_masked_tail_needs_whole_atom_despite_rounding(self):
        # E_0(chi_Q) rounds to exactly 1.0 although Q misses a leaf; the
        # infinite tail must still vanish on the root atom
        space = make_tree_space(1, 2, [1.0, 1e-300])
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = FunctionVector((np.array([2.0, 3.0]),), np.array([True, False]))
        rows = level_products(space, fv, seq)
        np.testing.assert_array_equal(rows, [[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(rows, masked_tail_products_oracle(space, fv, fv.mask))

    @pytest.mark.parametrize("depth, branching", [
        (0, 2), *((d, r) for d in (1, 2, 3) for r in (2, 3, 4))])
    def test_masked_tail_matches_the_atom_count_oracle(self, depth, branching):
        # the infinite-tail factor decided by entry level against the
        # per-level integer atom counts, bit for bit, on single masks and
        # (B, leaves) stacks, with full and empty masks among them
        rng = np.random.default_rng(100 * depth + branching)
        space = make_tree_space(depth, branching, rng.dirichlet(np.full(branching**depth, 3.0)))
        seq = make_exponent_sequence([2.0, 3.5], 0.3, 0.5)
        fv = FunctionVector(tuple(random_positive(rng, space) for _ in range(2)), None)
        masks = rng.random((12, space.n_leaves)) < rng.uniform(0.3, 1.0, (12, 1))
        masks[0], masks[1] = True, False
        levels = np.arange(depth + 1)[:, None]
        np.testing.assert_array_equal(
            levels >= holder_mod._entry_levels(space, masks)[..., None, :],
            full_atoms_oracle(space, masks))
        np.testing.assert_array_equal(
            level_products(space, FunctionVector(fv.active, masks), seq),
            masked_tail_products_oracle(space, fv, masks))
        for mask in masks:
            np.testing.assert_array_equal(
                level_products(space, FunctionVector(fv.active, mask), seq),
                masked_tail_products_oracle(space, fv, mask))


def test_norm_products_match_the_slot_oracle(monkeypatch):
    # function_norms_product, the right side of holder_conditional_check and
    # the band norms of verify_weak_to_testing against the slot-by-slot oracle,
    # on masked and unmasked vectors, weights longer than the active block,
    # no active slot, finite families with head padding and branching 3
    bands_seen = []

    def within_spy(lhs, bound, tolerance):
        bands_seen.append((lhs, bound))
        return _within_margin(lhs, bound, tolerance)

    monkeypatch.setattr(theorems_mod, "_within_margin", within_spy)
    rng = np.random.default_rng(71)
    covered = set()
    for k in range(60):
        space = random_space(rng, max_depth=2, branchings=(3 if k % 3 == 0 else 2,))
        seq = random_sequence(rng, max_head=3, allow_finite=False)
        if k % 2 == 0:
            seq = make_exponent_sequence(list(seq.head), 0.0)
        n_active = k % (seq.head_len + 1)
        n_weights = int(rng.integers(0, seq.head_len + 1))
        comps = tuple(random_positive(rng, space) for _ in range(n_active))
        weights = [random_positive(rng, space) for _ in range(n_weights)]
        ws = make_weight_system(space, seq, weights, random_positive(rng, space))
        p = 1.0 / seq.aggregate_reciprocal
        for mask in (None, random_leaf_mask(rng, space)):
            fv = FunctionVector(comps, mask)
            covered.update({
                "masked" if mask is not None else "unmasked",
                *(["longer weights"] if n_weights > n_active else []),
                *(["no active"] if n_active == 0 else []),
                *(["padded finite"] if seq.is_finite_family and n_active < seq.head_len else []),
            })
            for w in (None, weights):
                assert function_norms_product(space, fv, seq, w) == pytest.approx(
                    norms_product_oracle(space, fv, seq, w or ()), rel=1e-12, abs=0.0)

            rhs = holder_mod._conditional_parts(space, fv, seq)[1]
            for n in space.levels:
                report = holder_conditional_check(space, fv, seq, n)
                # the right side of every level, one entry per level-n atom
                rhs_atoms = space.level(rhs, n)
                assert rhs_atoms.shape == (space.n_atoms(n),)
                assert report.rhs == rhs_atoms[report.metadata["atom"]]
                for j in range(space.n_atoms(n)):
                    atom = np.zeros(space.n_leaves, dtype=bool)
                    atom[space.atom_slice(n, j)] = True
                    q = atom if mask is None else atom & mask
                    expected = norms_product_oracle(space, FunctionVector(comps, q), seq)
                    expected /= float(space.leaf_probs[atom].sum()) ** (1.0 / p)
                    np.testing.assert_allclose(rhs_atoms[j], expected, rtol=1e-12, atol=0.0)

            bands_seen.clear()
            c_weak = 1.5
            report = verify_weak_to_testing(ws, fv, c_weak)
            levels = report.metadata["bands_per_level"]
            # the bands of all levels in one stacked call, level by level
            [(lhs, bound)] = bands_seen
            sizes = [len(level_bands) for level_bands in levels.values()]
            assert len(lhs) == len(bound) == sum(sizes)
            cuts = np.cumsum(sizes)[:-1]
            for lhs_n, bound_n, level_bands in zip(
                np.split(lhs, cuts), np.split(bound, cuts), levels.values()
            ):
                exp_lhs, exp_bound = [], []
                for k_band, leaves in level_bands.items():
                    band = np.zeros(space.n_leaves, dtype=bool)
                    band[leaves] = True
                    q = band if mask is None else band & mask
                    norms = norms_product_oracle(space, FunctionVector(comps, q), seq, weights)
                    exp_bound.append(c_weak**p * norms**p)
                    exp_lhs.append((2.0**k_band) ** p * np.sum((space.leaf_probs * ws.v)[band]))
                np.testing.assert_allclose(bound_n, exp_bound, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(lhs_n, exp_lhs, rtol=1e-12, atol=0.0)
    assert covered == {"masked", "unmasked", "longer weights", "no active", "padded finite"}


@pytest.mark.parametrize(
    "call, match",
    [
        # two components, one head slot
        (lambda: function_norms_product(
            make_tree_space(1, 2), function_vector(make_tree_space(1, 2), [[1.0, 2.0]] * 2),
            make_exponent_sequence([2.0], 0.5, 0.5)), "2 components exceed exponent head length 1"),
        (lambda: lp_norm(make_tree_space(1, 2), np.ones(2), 0.0), "exponent 0.0 must be positive"),
    ],
    ids=["components-past-head", "lp-exponent-zero"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
