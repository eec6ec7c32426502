import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martbench.exponents import make_exponent_sequence
from martbench.scalar import (
    DivergentProductError,
    exp_jensen_check,
    make_weighted_pair,
    product_eval,
    weighted_am_gm,
    _young_tail_sum,
    young_check,
)


def random_pair(rng, values="real", max_head=8):
    m = int(rng.integers(1, max_head + 1))
    raw = rng.uniform(0.2, 1.0, m + 1)
    raw /= raw.sum()
    lams, tail_mass = raw[:m], float(raw[m])
    ratio = float(rng.uniform(0.2, 0.8))
    if values == "real":
        vals = rng.uniform(-3.0, 3.0, m)
        tail = float(rng.uniform(-3.0, 3.0))
    else:
        vals = np.exp(rng.uniform(-3.0, 3.0, m))
        tail = float(np.exp(rng.uniform(-3.0, 3.0)))
    return make_weighted_pair(lams, tail_mass, ratio, vals, tail)


class TestProductEval:
    def test_unit_tail(self):
        assert product_eval([2.0, 3.0], 1.0).value == 6.0

    def test_vanishing_tail(self):
        assert product_eval([5.0], 0.9).value == 0.0

    def test_empty_product(self):
        assert product_eval([], 1.0).value == 1.0

    def test_zero_head_factor(self):
        assert product_eval([0.0, 7.0], 1.0).value == 0.0

    def test_divergent_tail_rejected(self):
        with pytest.raises(DivergentProductError):
            product_eval([2.0], 1.0000001)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            product_eval([-1.0], 1.0)

    def test_partial_product_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            head = list(rng.uniform(0.0, 3.0, rng.integers(0, 6)))
            tail = float(rng.choice([1.0, rng.uniform(0.0, 0.99)]))
            value = product_eval(head, tail).value
            partial = float(np.prod(head)) * tail**10_000
            assert abs(value - partial) <= 1e-12 * max(1.0, abs(partial))


class TestExpJensen:
    def test_constant_zero_is_equality(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [0.0], 0.0)
        report = exp_jensen_check(pair)
        assert report.passed
        assert report.lhs == 1.0
        assert abs(report.lhs - report.rhs) <= 1e-12 * report.rhs

    def test_half_log_four(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [math.log(4.0)], 0.0)
        report = exp_jensen_check(pair)
        assert report.passed
        assert report.lhs == pytest.approx(2.0, rel=1e-12)
        assert report.rhs == pytest.approx(2.5, rel=1e-12)

    def test_geometric_halving(self):
        pair = make_weighted_pair([0.5, 0.25], 0.25, 0.5, [1.0, -1.0], 0.0)
        assert exp_jensen_check(pair).passed

    def test_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            assert exp_jensen_check(random_pair(rng)).passed


class TestWeightedAmGm:
    def test_all_ones_equality(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [1.0], 1.0)
        report = weighted_am_gm(pair)
        assert report.passed
        assert abs(report.lhs - report.rhs) <= 1e-12 * report.rhs

    def test_half_weight_on_four(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [4.0], 1.0)
        report = weighted_am_gm(pair)
        assert report.lhs == pytest.approx(2.0, rel=1e-12)
        assert report.rhs == pytest.approx(2.5, rel=1e-12)

    def test_zero_factor(self):
        pair = make_weighted_pair([0.3, 0.3], 0.4, 0.5, [0.0, 7.0], 1.0)
        report = weighted_am_gm(pair)
        assert report.lhs == 0.0
        assert report.passed

    def test_zero_tail_value(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [3.0], 0.0)
        assert weighted_am_gm(pair).lhs == 0.0

    def test_all_equal_within_tolerance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            c = float(np.exp(rng.uniform(-2, 2)))
            m = int(rng.integers(1, 6))
            raw = rng.uniform(0.2, 1.0, m + 1)
            raw /= raw.sum()
            pair = make_weighted_pair(raw[:m], float(raw[m]), 0.5, [c] * m, c)
            report = weighted_am_gm(pair)
            assert abs(report.lhs - report.rhs) <= 1e-12 * report.rhs

    def test_rejects_negative_value(self):
        pair = make_weighted_pair([0.5], 0.5, 0.5, [1.0], 1.0)
        bad = type(pair)(pair.weights, (-1.0,), 1.0)
        with pytest.raises(ValueError):
            weighted_am_gm(bad)


class TestYoung:
    def test_all_ones_equality(self):
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = young_check(seq, [1.0], 1.0)
        assert report.passed
        assert report.lhs == 1.0
        assert abs(report.rhs - 1.0) <= 1e-12

    def test_doubling_head_two(self):
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = young_check(seq, [2.0], 1.0)
        assert report.lhs == pytest.approx(2.0, rel=1e-12)
        assert report.rhs == pytest.approx(2.5, rel=1e-12)
        assert report.passed

    def test_zero_head(self):
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = young_check(seq, [0.0], 1.0)
        assert report.lhs == 0.0
        assert report.passed

    def test_requires_unit_mass(self):
        seq = make_exponent_sequence([2.0], 0.25, 0.5)
        with pytest.raises(ValueError):
            young_check(seq, [1.0], 1.0)

    def test_sub_unit_tail_value(self):
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        report = young_check(seq, [2.0], 0.5)
        assert report.lhs == 0.0
        assert report.passed


def young_tail_oracle(seq, c):
    """sum_k c**p_{m+k} / p_{m+k} over the tail in 40-digit arithmetic, until
    the certified remainder term / (1 - r) is below 1e-30 of the sum."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s, r, c = (mpmath.mpf(x) for x in (seq.tail_mass, seq.tail_ratio, c))
        log_c, recip, total = mpmath.log(c), s * (1 - r), mpmath.mpf(0)
        while True:
            term = mpmath.exp(log_c / recip) * recip
            total += term
            if term <= mpmath.mpf("1e-30") * (1 - r) * total:
                return float(total)
            recip *= r


class TestYoungTailSum:
    @pytest.mark.parametrize(
        "mass, ratio, c",
        [(0.5, 0.999, 1.0 - 1e-9), (0.9, 0.999, 1.0 - 1e-9), (0.5, 0.5, 0.5),
         (0.3, 0.2, 0.999), (0.6, 0.99, 1.0 - 1e-6)],
    )
    def test_matches_the_mpmath_oracle(self, mass, ratio, c):
        # with ratio 0.999 and c = 1 - 1e-9 the sum needs about 16,000
        # terms; a stop after 10,000 was off by 4e-5 relative
        seq = make_exponent_sequence([1.0 / (1.0 - mass)], mass, ratio)
        tail = _young_tail_sum(seq, c)
        assert tail == pytest.approx(young_tail_oracle(seq, c), rel=1e-12)
        report = young_check(seq, [2.0], c)
        assert report.rhs == 2.0 ** seq.head[0] / seq.head[0] + tail

    def test_finite_family_and_zero_tail_value_give_zero(self):
        assert _young_tail_sum(make_exponent_sequence([2.0, 2.0], 0.0), 0.5) == 0.0
        assert _young_tail_sum(make_exponent_sequence([2.0], 0.5, 0.5), 0.0) == 0.0

    def test_a_sum_that_does_not_converge_raises(self):
        # ratio 1 - 1e-6 and c = 1 - 1e-12 need about 1.7e7 terms before the
        # remainder is certified, past the 2**22-term bound
        seq = make_exponent_sequence([2.0], 0.5, 0.999999)
        with pytest.raises(ValueError, match=r"2\*\*22 terms"):
            young_check(seq, [1.0], 1.0 - 1e-12)


class TestVerdictAgreement:
    def test_jensen_vs_am_gm_substitution(self):
        # a_i = exp(b_i) maps one inequality onto the other
        rng = np.random.default_rng(13)
        for _ in range(300):
            pair_b = random_pair(rng, values="real")
            pair_a = type(pair_b)(
                pair_b.weights,
                tuple(math.exp(b) for b in pair_b.values),
                math.exp(pair_b.tail_value),
            )
            jensen = exp_jensen_check(pair_b)
            am_gm = weighted_am_gm(pair_a)
            assert jensen.passed == am_gm.passed
            assert jensen.lhs == pytest.approx(am_gm.lhs, rel=1e-9)
            assert jensen.rhs == pytest.approx(am_gm.rhs, rel=1e-9)

    def test_young_vs_am_gm_substitution(self):
        # a_i = c_i**p_i with lambda_i = 1/p_i maps Young onto AM-GM
        rng = np.random.default_rng(14)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            raw = rng.uniform(0.2, 1.0, m + 1)
            raw /= raw.sum()
            lams, s = raw[:m], float(raw[m])
            ratio = 0.5
            seq = make_exponent_sequence([1.0 / l for l in lams], s, ratio)
            c = np.exp(rng.uniform(-1.0, 1.0, m))
            young = young_check(seq, c, 1.0)
            pair = make_weighted_pair(
                lams, s, ratio, [c[i] ** seq.head[i] for i in range(m)], 1.0
            )
            am_gm = weighted_am_gm(pair)
            assert young.passed == am_gm.passed
            assert young.lhs == pytest.approx(am_gm.lhs, rel=1e-9)
            assert young.rhs == pytest.approx(am_gm.rhs, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=6),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_jensen_holds_for_generated_values(self, values, tail):
        m = len(values)
        lams = [0.5 / m] * m
        pair = make_weighted_pair(lams, 0.5, 0.5, values, tail)
        assert exp_jensen_check(pair).passed


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: product_eval([1.0], -0.5), "tail factor -0.5 must be nonnegative"),
        (lambda: make_weighted_pair([1.0], 0.0, 0.5, [1.0], 1.0), r"weight 1.0 not in \(0, 1\)"),
        (lambda: make_weighted_pair([0.5], 0.25, 0.5, [1.0], 1.0), "weights sum to 0.75"),
        (lambda: make_weighted_pair([0.5], 0.5, 0.5, [1.0, 2.0], 1.0), "2 values for 1 head"),
        (lambda: young_check(make_exponent_sequence([2.0], 0.5, 0.5), [1.0, 2.0]),
         "2 values for head of length 1"),
        (lambda: young_check(make_exponent_sequence([2.0], 0.5, 0.5), [-1.0]),
         "value -1.0 must be nonnegative"),
    ],
    ids=["product-negative-tail", "pair-weight-one", "pair-mass", "pair-values",
         "young-values", "young-negative"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
