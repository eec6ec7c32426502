import numpy as np
import pytest

from martbench.exponents import make_exponent_sequence
from martbench.filtration import StoppingTime, make_tree_space
from martbench.holder import (
    FunctionVector,
    function_norms_product,
    function_vector,
    holder_integral_check,
    level_products,
    lp_norm,
    product_function,
)
from martbench.maximal import (
    _level_sets,
    doob_inequality_check,
    doob_maximal,
    gen_doob_maximal,
    gen_weighted_maximal,
    level_set_stopping_time,
    weak_lp_norm,
    weighted_measure,
)

from helpers import (
    level_sets_oracle,
    random_fvec,
    random_leaf_mask,
    random_positive,
    random_sequence,
    random_space,
)

INF = StoppingTime.INFINITE


class TestDoobMaximal:
    def test_hand_example(self):
        space = make_tree_space(1, 2)
        np.testing.assert_array_equal(doob_maximal(space, np.array([4.0, 0.0])), [4.0, 2.0])

    def test_constant(self):
        space = make_tree_space(2, 2)
        np.testing.assert_array_equal(doob_maximal(space, np.full(4, -3.0)), np.full(4, 3.0))

    def test_dominates_nonnegative_input(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            space = random_space(rng)
            f = random_positive(rng, space)
            assert np.all(doob_maximal(space, f) >= f)


class TestGenDoobMaximal:
    def test_two_disjoint_indicators(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0, 4.0], 0.25, 0.5)
        fv = function_vector(space, [[4.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(gen_doob_maximal(space, fv, seq), [4.0, 4.0])

    def test_single_component_reduces_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            space = random_space(rng)
            seq = random_sequence(rng, max_head=1, allow_finite=False)
            f = random_positive(rng, space)
            fv = FunctionVector((f,), None)
            np.testing.assert_array_equal(
                gen_doob_maximal(space, fv, seq), doob_maximal(space, f)
            )

    def test_masked_identity_single_atom(self):
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        mask = np.array([True, True, False, False])
        fv = function_vector(space, [np.ones(4)], mask)
        got = gen_doob_maximal(space, fv, seq)
        np.testing.assert_array_equal(got, mask.astype(float))

    def test_masked_identity_random_leaf_unions(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            space = random_space(rng)
            seq = random_sequence(rng, allow_finite=False)
            mask = random_leaf_mask(rng, space)
            fv = FunctionVector(
                tuple(np.ones(space.n_leaves) for _ in range(seq.head_len)), mask
            )
            got = gen_doob_maximal(space, fv, seq)
            np.testing.assert_array_equal(got, mask.astype(float))

    def test_dominates_every_level_product(self):
        rng = np.random.default_rng(33)
        from martbench.holder import level_products

        for _ in range(50):
            space = random_space(rng)
            seq = random_sequence(rng)
            fv = random_fvec(rng, space, seq)
            rows = level_products(space, fv, seq)
            maximal = gen_doob_maximal(space, fv, seq)
            assert np.all(rows <= maximal[None, :])

    def test_power_of_two_homogeneity_exact(self):
        rng = np.random.default_rng(34)
        space = random_space(rng)
        seq = random_sequence(rng, max_head=3, allow_finite=False)
        fv = random_fvec(rng, space, seq)
        base = gen_doob_maximal(space, fv, seq)
        for c in (0.0, 0.5, 2.0, 4.0):
            scaled = FunctionVector((fv.active[0] * c, *fv.active[1:]), None)
            got = gen_doob_maximal(space, scaled, seq)
            np.testing.assert_array_equal(got, c * base)

    def test_general_homogeneity(self):
        rng = np.random.default_rng(35)
        space = random_space(rng)
        seq = random_sequence(rng, max_head=2, allow_finite=False)
        fv = random_fvec(rng, space, seq)
        base = gen_doob_maximal(space, fv, seq)
        c = 1.7
        scaled = FunctionVector((fv.active[0] * c, *fv.active[1:]), None)
        np.testing.assert_allclose(gen_doob_maximal(space, scaled, seq), c * base, rtol=1e-12)


def test_overflowed_products_are_inf_without_a_warning():
    # the suite turns a RuntimeWarning into an error: each public product
    # takes an overflow as inf, which fails the report it reaches
    space = make_tree_space(2, 2)
    seq = make_exponent_sequence([2.0, 3.0], 0.5, 0.5)
    big = np.array([1e300, 1.0, 1.0, 1.0])
    fv = FunctionVector((big, big))
    assert product_function(space, fv)[0] == np.inf
    report = holder_integral_check(space, fv, seq)
    assert not report.passed and report.metadata["reason"] == "inf"
    assert (level_products(space, fv, seq)[:, 0] == np.inf).all()
    np.testing.assert_array_equal(gen_doob_maximal(space, fv, seq), np.inf)
    np.testing.assert_array_equal(level_set_stopping_time(space, fv, seq, 1.0).values, 0)
    sigma = np.array([1e10, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(
        gen_weighted_maximal(space, FunctionVector((big,)), [sigma], seq), np.inf)


class TestGenWeightedMaximal:
    def test_unit_density_reduces(self):
        rng = np.random.default_rng(36)
        space = random_space(rng)
        seq = random_sequence(rng, max_head=2)
        fv = random_fvec(rng, space, seq)
        ones = [np.ones(space.n_leaves)] * fv.n_active
        np.testing.assert_allclose(
            gen_weighted_maximal(space, fv, ones, seq),
            gen_doob_maximal(space, fv, seq),
            rtol=1e-14,
        )

    def test_constant_components(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0, 4.0], 0.25, 0.5)
        fv = function_vector(space, [np.full(2, 3.0), np.full(2, 2.0)])
        sigmas = [np.array([1.0, 5.0]), np.array([2.0, 1.0])]
        np.testing.assert_allclose(
            gen_weighted_maximal(space, fv, sigmas, seq), np.full(2, 6.0), rtol=1e-14
        )

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[3.0, 1.0]])
        got = gen_weighted_maximal(space, fv, [np.array([1.0, 3.0])], seq)
        np.testing.assert_allclose(got, [3.0, 1.5], rtol=1e-14)


class TestWeightedMeasure:
    def test_whole_space(self):
        space = make_tree_space(1, 2)
        assert weighted_measure(space, np.array([True, True])) == pytest.approx(1.0)

    def test_empty_set(self):
        space = make_tree_space(1, 2)
        assert weighted_measure(space, np.array([False, False])) == 0.0

    def test_weighted_leaf(self):
        space = make_tree_space(1, 2)
        assert weighted_measure(
            space, np.array([True, False]), np.array([2.0, 6.0])
        ) == pytest.approx(1.0)

    def test_a_mask_is_boolean_or_exactly_zero_and_one(self):
        # JSON-style 0/1 entries are the set they spell; any other entry
        # (a fraction, NaN, 2) is refused, not cast to "inside the set"
        space = make_tree_space(1, 2)
        assert weighted_measure(space, [1, 0]) == weighted_measure(space, [1.0, 0.0]) == 0.5
        for leaf_set in ([0.3, 0], [np.nan, 0.0], [2, 0], [-1, 1]):
            with pytest.raises(ValueError, match="mask entries must be booleans or exactly 0 or 1"):
                weighted_measure(space, leaf_set)


class TestWeakNorm:
    def test_constant(self):
        space = make_tree_space(1, 2)
        v = np.array([2.0, 6.0])
        assert weak_lp_norm(space, np.full(2, 3.0), 2.0, v) == pytest.approx(
            3.0 * 2.0, rel=1e-12
        )

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        assert weak_lp_norm(space, np.array([4.0, 2.0]), 1.0, np.ones(2)) == 2.0

    def test_zero(self):
        space = make_tree_space(1, 2)
        assert weak_lp_norm(space, np.zeros(2), 1.0, np.ones(2)) == 0.0

    def test_tied_values_take_the_mass_at_the_end_of_the_block(self):
        # v-masses 1/2, 1/3, 1/6; sorted, g is 3, 2, 2 with cumulative masses
        # 1/6, 2/3, 1: |{g >= 2}| = 1 gives 2, where the first entry of the
        # tied block would give 2 * (2/3)**(1/p) and t = 3 gives 3 * (1/6)**(1/p)
        space = make_tree_space(1, 3)
        v = np.array([1.5, 1.0, 0.5])
        g = np.array([2.0, 2.0, 3.0])
        assert weak_lp_norm(space, g, 1.0, v) == pytest.approx(2.0, rel=1e-12)
        assert weak_lp_norm(space, g, 2.0, v) == pytest.approx(2.0, rel=1e-12)
        # against the definition, value by value, on vectors with many ties
        rng = np.random.default_rng(38)
        for _ in range(100):
            space = random_space(rng)
            g = np.round(rng.uniform(0.0, 3.0, space.n_leaves)) / 2.0
            v = random_positive(rng, space)
            p = float(rng.uniform(0.5, 4.0))
            w = space.leaf_probs * v
            levels = [t * np.sum(w[g >= t]) ** (1.0 / p) for t in set(g.tolist()) if t > 0.0]
            assert weak_lp_norm(space, g, p, v) == pytest.approx(max(levels + [0.0]), rel=1e-12, abs=0.0)

    def test_chebyshev(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            space = random_space(rng)
            g = random_positive(rng, space)
            v = random_positive(rng, space)
            p = float(rng.uniform(0.5, 4.0))
            assert weak_lp_norm(space, g, p, v) <= lp_norm(space, g, p, v) * (1 + 1e-12)


class TestLevelSetStoppingTime:
    def test_low_threshold_stops_at_root(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[4.0, 0.0]])
        tau = level_set_stopping_time(space, fv, seq, 1.0)
        np.testing.assert_array_equal(tau.values, [0, 0])

    def test_intermediate_threshold(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[4.0, 0.0]])
        tau = level_set_stopping_time(space, fv, seq, 3.0)
        np.testing.assert_array_equal(tau.values, [1, INF])

    def test_threshold_above_max(self):
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        fv = function_vector(space, [[4.0, 0.0]])
        tau = level_set_stopping_time(space, fv, seq, 100.0)
        np.testing.assert_array_equal(tau.values, [INF, INF])

    def test_always_adapted(self):
        rng = np.random.default_rng(38)
        from martbench.filtration import is_stopping_time

        for _ in range(100):
            space = random_space(rng)
            seq = random_sequence(rng)
            fv = random_fvec(rng, space, seq)
            lam = float(rng.uniform(0.0, 3.0))
            assert is_stopping_time(space, level_set_stopping_time(space, fv, seq, lam))


class TestDoobInequality:
    def test_hand_example(self):
        space = make_tree_space(1, 2)
        report = doob_inequality_check(space, np.array([4.0, 0.0]), 2.0, np.ones(2))
        assert report.passed
        assert report.lhs == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert report.constant * report.rhs == pytest.approx(2 * np.sqrt(8.0), rel=1e-12)

    def test_constant_function(self):
        space = make_tree_space(2, 2)
        report = doob_inequality_check(space, np.full(4, 2.0), 3.0, np.ones(4))
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_random_suite(self):
        rng = np.random.default_rng(39)
        for _ in range(300):
            space = random_space(rng)
            g = random_positive(rng, space, spread=8.0)
            sigma = random_positive(rng, space)
            q = float(rng.choice([1.5, 2.0, 4.0]))
            assert doob_inequality_check(space, g, q, sigma).passed


@pytest.mark.parametrize(
    "call",
    [
        lambda space, w: weighted_measure(space, [True, True], w),
        lambda space, w: weak_lp_norm(space, np.ones(2), 2.0, w),
        lambda space, w: gen_weighted_maximal(
            space,
            function_vector(space, [[1.0, 2.0]]),
            [w],
            make_exponent_sequence([2.0], 0.5, 0.5),
        ),
        lambda space, w: function_norms_product(
            space,
            function_vector(space, [[1.0, 2.0]]),
            make_exponent_sequence([2.0], 0.5, 0.5),
            [w],
        ),
    ],
    ids=["weighted_measure", "weak_lp_norm", "gen_weighted_maximal", "function_norms_product"],
)
def test_weighted_measures_reject_a_nonpositive_weight(call):
    space = make_tree_space(1, 2)
    with pytest.raises(ValueError, match="strictly positive"):
        call(space, np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: gen_weighted_maximal(
            make_tree_space(1, 2),
            function_vector(make_tree_space(1, 2), [[1.0, 2.0]], [True, False]),
            [np.ones(2)], make_exponent_sequence([2.0], 0.5, 0.5)), "masked vectors"),
        (lambda: weak_lp_norm(make_tree_space(1, 2), np.ones(2), 0.0, np.ones(2)),
         "exponent 0.0 must be positive"),
        (lambda: doob_inequality_check(make_tree_space(1, 2), np.ones(2), 1.0, np.ones(2)),
         "exponent 1.0 must be > 1"),
    ],
    ids=["weighted-maximal-masked", "weak-exponent-zero", "doob-exponent-one"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_level_sets_match_the_appended_tie_marks_bit_for_bit():
    # ties, zeros, negatives, NaNs, infinities and a single leaf: the tied
    # blocks marked in place give the values and masses the np.append marks
    # gave
    rng = np.random.default_rng(33)
    special = [0.0, -1.0, np.nan, np.inf, 2.0, 2.0]
    for n in (1, 2, 7, 64, 1000):
        for trial in range(6):
            g = rng.choice([0.5, 1.0, 2.0, 3.0], n) if trial % 2 else rng.uniform(-1.0, 4.0, n)
            if trial > 3:
                g[rng.integers(n, size=min(n, 4))] = rng.choice(special, min(n, 4))
            probs = rng.uniform(0.1, 1.0, n)
            for got, want in zip(_level_sets(g, probs), level_sets_oracle(g, probs)):
                np.testing.assert_array_equal(got, want, strict=True)
