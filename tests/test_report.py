import itertools
import math

import numpy as np
import pytest

from martbench.report import (
    ABS_FLOOR, REL_TOL, _margin, _power, _within_margin, check_inequality)


def old_margin(bound, tolerance):
    return bound + tolerance * abs(bound) + ABS_FLOOR


class TestMargin:
    def test_scalar_edges(self):
        m = _margin(2.0, 1e-12)
        assert m == old_margin(2.0, 1e-12)
        assert _within_margin(m, 2.0, 1e-12)
        assert not _within_margin(np.nextafter(m, math.inf), 2.0, 1e-12)
        assert _within_margin(ABS_FLOOR, 0.0, 0.0)
        assert not _within_margin(2.0 * ABS_FLOOR, 0.0, 0.0)

    def test_arrays_match_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        bound = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        lhs = bound * (1.0 + rng.uniform(-2e-12, 2e-12, 200))
        for tol in (0.0, 1e-12, 1e-3):
            np.testing.assert_array_equal(_margin(bound, tol), old_margin(bound, tol))
            np.testing.assert_array_equal(
                _within_margin(lhs, bound, tol), lhs <= old_margin(bound, tol)
            )

    @pytest.mark.parametrize("lhs, bound", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_fails(self, lhs, bound):
        assert not _within_margin(lhs, bound)
        assert not _within_margin(np.array([lhs, 0.0]), np.array([bound, 1.0]))[0]


    def test_infinite_bound_fails(self):
        assert not _within_margin(1.0, math.inf)
        assert not _within_margin(math.inf, math.inf)
        np.testing.assert_array_equal(
            _within_margin(np.array([1.0, 1.0, 2.0]), np.array([math.inf, 1.0, 1.0])),
            [False, True, False],
        )


class TestNanReason:
    @pytest.mark.parametrize("lhs, rhs, constant", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
    ])
    def test_nan_report_names_its_reason_in_a_copy(self, lhs, rhs, constant):
        metadata = {"space": "abc"}
        report = check_inequality("x", lhs, rhs, constant=constant, metadata=metadata)
        assert not report.passed
        assert report.metadata == {"space": "abc", "reason": "nan"}
        assert metadata == {"space": "abc"}
        assert check_inequality("x", lhs, rhs, constant=constant).metadata == {"reason": "nan"}

    def test_finite_report_has_no_reason(self):
        report = check_inequality("x", 2.0, 1.0, metadata={"space": "abc"})
        assert not report.passed and report.metadata == {"space": "abc"}


class TestInfReason:
    @pytest.mark.parametrize("lhs, rhs, constant", [
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
        (1.0, 1e200, 1e200), (math.inf, math.inf, 1.0), (0.0, math.inf, 0.0),
    ])
    def test_infinite_side_constant_or_bound_fails(self, lhs, rhs, constant):
        report = check_inequality("x", lhs, rhs, constant=constant, metadata={"space": "abc"})
        assert not report.passed
        assert report.metadata == {"space": "abc", "reason": "inf"}

    def test_nan_outranks_inf(self):
        report = check_inequality("x", math.nan, math.inf)
        assert not report.passed and report.metadata == {"reason": "nan"}


EDGES = (0.0, ABS_FLOOR, 1.0 - 1e-12, 1.0 + 1e-12, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("tolerance", [0.0, REL_TOL])
@pytest.mark.parametrize("lhs", EDGES)
def test_verdict_and_reason_on_the_edge_grid(lhs, tolerance):
    # the verdict is _within_margin's with both sides finite, and fails
    # otherwise with the "reason" a NaN side or constant names first
    for rhs, constant in itertools.product(EDGES, EDGES):
        report = check_inequality("x", lhs, rhs, constant, tolerance, {"space": "abc"})
        bound = constant * rhs
        finite = math.isfinite(lhs) and math.isfinite(bound)
        assert report.passed is (finite and bool(_within_margin(lhs, bound, tolerance)))
        nan = math.isnan(lhs) or math.isnan(rhs) or math.isnan(constant)
        reason = {} if finite else {"reason": "nan" if nan else "inf"}
        assert report.metadata == {"space": "abc", **reason}
        fields = (report.lhs, report.rhs, report.constant, report.slack, report.tolerance)
        want = (lhs, rhs, constant, bound - lhs, tolerance)
        assert all(a == b or math.isnan(a) and math.isnan(b) for a, b in zip(fields, want))


class TestPower:
    def test_float_power_past_the_range_is_inf(self):
        assert _power(1.5, 2.0) == 1.5**2.0
        assert _power(0.0, 1000.5) == 0.0
        assert _power(23.4, 1000.5) == math.inf
        assert _power(2.0, 2000.0) == math.inf
        assert _power(math.inf, 0.5) == math.inf
        assert math.isnan(_power(math.nan, 1000.5))
