import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from martbench.exponents import (
    CertifiedInterval,
    _tail_log_bracket,
    conjugate_at,
    conjugate_product,
    exponent_at,
    hl_bound_constant,
    make_exponent_sequence,
    sequence_from_json,
    xi_constant,
)

from helpers import random_sequence


def geometric_doubling():
    """p_i = 2**i: head [2], remaining reciprocal mass 1/2 halving."""
    return make_exponent_sequence([2.0], 0.5, 0.5)


class TestConstruction:
    def test_doubling_sequence(self):
        seq = geometric_doubling()
        assert [exponent_at(seq, i) for i in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 16.0]
        assert seq.aggregate_reciprocal == 1.0

    def test_degenerate_finite_head(self):
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        assert seq.is_finite_family
        assert seq.aggregate_reciprocal == 1.0
        assert exponent_at(seq, 2) == 2.0
        with pytest.raises(IndexError):
            exponent_at(seq, 3)

    def test_rejects_unit_exponent(self):
        with pytest.raises(ValueError):
            make_exponent_sequence([1.0], 0.25)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(ValueError):
            make_exponent_sequence([math.inf], 0.25)

    def test_rejects_sub_unit_first_tail_exponent(self):
        # first tail reciprocal would be 3 * 0.5 = 1.5, so p <= 1
        with pytest.raises(ValueError):
            make_exponent_sequence([2.0], 3.0, 0.5)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            make_exponent_sequence([], 0.0)

    def test_json_round_trip(self):
        seq = geometric_doubling()
        assert sequence_from_json(seq.to_json()) == seq


class TestConjugates:
    @pytest.mark.parametrize("p,expected", [(2.0, 2.0), (4.0, 4.0 / 3.0), (8.0, 8.0 / 7.0)])
    def test_values(self, p, expected):
        seq = make_exponent_sequence([p], 0.0)
        assert conjugate_at(seq, 1) == pytest.approx(expected, rel=1e-15)

    def test_tail_conjugates(self):
        seq = geometric_doubling()
        assert conjugate_at(seq, 3) == pytest.approx(8.0 / 7.0, rel=1e-14)

    def test_reciprocal_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            seq = random_sequence(rng)
            i = int(rng.integers(1, seq.head_len + (1 if seq.is_finite_family else 8)))
            total = 1.0 / exponent_at(seq, i) + 1.0 / conjugate_at(seq, i)
            assert abs(total - 1.0) <= 1e-12

    @given(st.floats(min_value=1.0001, max_value=1e6))
    def test_reciprocal_identity_head(self, p):
        seq = make_exponent_sequence([p], 0.0)
        assert 1.0 / p + 1.0 / conjugate_at(seq, 1) == pytest.approx(1.0, abs=1e-12)


def high_precision_doubling_product() -> float:
    """Independent oracle: partial products of prod 1/(1 - 2**-i) in
    50-digit arithmetic until they stabilize at machine tolerance."""
    from mpmath import mp, mpf

    mp.dps = 50
    product = mpf(1)
    previous = None
    i = 1
    while previous is None or abs(product - previous) > mpf("1e-40"):
        previous = product
        product = product / (1 - mpf(2) ** (-i))
        i += 1
    return float(product)


class TestConjugateProduct:
    def test_doubling_interval(self):
        interval = conjugate_product(geometric_doubling(), rel_tol=1e-9)
        oracle = high_precision_doubling_product()
        assert interval.contains(oracle)
        assert interval.contains(3.462746619)
        assert interval.rel_width <= 1e-9

    def test_finite_family_exact(self):
        interval = conjugate_product(make_exponent_sequence([2.0, 2.0], 0.0))
        assert (interval.lo, interval.hi) == (4.0, 4.0)

    def test_all_two_head_is_power_of_two(self):
        for m in range(1, 8):
            interval = conjugate_product(make_exponent_sequence([2.0] * m, 0.0))
            assert interval.lo == interval.hi == 2.0**m

    def test_random_sequences_finite(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            interval = conjugate_product(random_sequence(rng))
            assert math.isfinite(interval.hi)
            assert interval.lo > 0.0

    def test_bracket_monotone_in_prefix(self):
        seq = geometric_doubling()
        lo_prev, hi_prev = _tail_log_bracket(seq, 2)
        for prefix in (4, 8, 16, 32):
            lo, hi = _tail_log_bracket(seq, prefix)
            assert lo >= lo_prev - 1e-15
            assert hi <= hi_prev + 1e-15
            lo_prev, hi_prev = lo, hi

    def test_nested_intervals(self):
        seq = geometric_doubling()
        loose = conjugate_product(seq, rel_tol=1e-6)
        tight = conjugate_product(seq, rel_tol=1e-10)
        assert loose.lo <= tight.lo and tight.hi <= loose.hi

    def test_product_past_the_float_range(self):
        # the tail log-sum passes log(float max)
        for mass in (1000.0, 700.0):
            interval = conjugate_product(make_exponent_sequence([2.0], mass, 0.9999))
            assert (interval.lo, interval.hi) == (sys.float_info.max, math.inf)
        # exp(lo_log) alone is finite, and head_prod * exp(lo_log) is not
        seq = make_exponent_sequence([1.001, 1.001], 690.0, 0.9999)
        lo_log, hi_log = _tail_log_bracket(seq, 1 << 17)  # 2e-10 wide
        assert hi_log < math.log(sys.float_info.max) < lo_log + 2.0 * math.log(1001.0)
        interval = conjugate_product(seq)
        assert (interval.lo, interval.hi) == (sys.float_info.max, math.inf)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            CertifiedInterval(2.0, 1.0)


class TestXiConstant:
    def test_dimension_one(self):
        assert xi_constant(1) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-12)

    def test_dimension_two(self):
        assert xi_constant(2) == pytest.approx(9.0 / math.pi, rel=1e-12)

    def test_dimension_three(self):
        expected = 27.0 / ((4.0 * math.pi / 3.0) * 1.5**1.5)
        assert xi_constant(3) == pytest.approx(expected, rel=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            xi_constant(0)


class TestHlBound:
    def test_doubling_dimension_one(self):
        interval = hl_bound_constant(geometric_doubling(), 1)
        assert interval.contains(xi_constant(1) * 3.462746619)
        assert math.isfinite(interval.hi)

    def test_finite_family(self):
        interval = hl_bound_constant(make_exponent_sequence([2.0, 2.0], 0.0), 1)
        assert interval.contains(4.0 * 3.0 / math.sqrt(2.0))

    def test_random_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            seq = random_sequence(rng)
            n = int(rng.integers(1, 5))
            assert math.isfinite(hl_bound_constant(seq, n).hi)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: make_exponent_sequence([2.0], -0.1), ValueError, "tail_mass -0.1"),
        (lambda: make_exponent_sequence([2.0], 0.5, 1.0), ValueError, "tail_ratio 1.0"),
        (lambda: exponent_at(geometric_doubling(), 0), IndexError, "index 0"),
        (lambda: conjugate_at(geometric_doubling(), 0), IndexError, "index 0"),
        (lambda: conjugate_at(make_exponent_sequence([2.0, 2.0]), 3), IndexError, "beyond finite"),
        (lambda: conjugate_product(geometric_doubling(), rel_tol=0.0), ValueError, "rel_tol"),
        (lambda: make_exponent_sequence("23"), TypeError, "not the string '23'"),
    ],
    ids=["tail-mass-negative", "tail-ratio-one", "exponent-index-zero",
         "conjugate-index-zero", "conjugate-past-finite-family", "rel-tol-zero",
         "string-head"],
)
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
