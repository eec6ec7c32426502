"""Shared verification report for inequality checks.

A report records both sides of one inequality LHS <= constant * RHS, the
slack constant * RHS - LHS, and a verdict taken with relative tolerance
plus a tiny absolute floor so exact-zero sides compare cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

REL_TOL = 1e-12
ABS_FLOOR = 1e-300


@dataclass(slots=True)
class VerificationReport:
    inequality: str
    lhs: float
    rhs: float
    constant: float
    slack: float
    passed: bool
    tolerance: float = REL_TOL
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "slack": self.slack,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "metadata": self.metadata,
        }


def _margin(bound, tolerance: float = REL_TOL):
    """The largest left side that passes against `bound` (a scalar or an
    array): bound + tolerance * |bound| + ABS_FLOOR."""
    return bound + tolerance * abs(bound) + ABS_FLOOR


def _within_margin(lhs, bound, tolerance: float = REL_TOL):
    """The verdict lhs <= _margin(bound, tolerance), elementwise, for a
    nonnegative lhs; a NaN on either side or an infinite bound fails."""
    return (lhs <= _margin(bound, tolerance)) & (bound < math.inf)


def _power(x: float, e: float) -> float:
    """x ** e for a Python float x >= 0 (or NaN): inf past the float range,
    where the float power raises OverflowError."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def check_inequality(
    inequality: str,
    lhs: float,
    rhs: float,
    constant: float = 1.0,
    tolerance: float = REL_TOL,
    metadata: dict | None = None,
) -> VerificationReport:
    """Build a report for LHS <= constant * RHS at the given tolerance.
    A side, constant or bound that is not finite fails the report, and a
    copy of the metadata then carries "reason": "nan" (a NaN side or
    constant) or "inf" (an infinite one, or a bound that overflowed).  With
    both sides finite the verdict is _within_margin's, on Python floats."""
    lhs, rhs, constant = float(lhs), float(rhs), float(constant)  # Python floats never warn
    bound = constant * rhs
    if math.isfinite(lhs) and math.isfinite(bound):  # a finite bound has finite factors
        passed = lhs <= _margin(bound, tolerance)
    else:
        passed = False
        nan = math.isnan(lhs) or math.isnan(rhs) or math.isnan(constant)
        metadata = {**(metadata or {}), "reason": "nan" if nan else "inf"}
    return VerificationReport(
        inequality, lhs, rhs, constant, bound - lhs, passed, tolerance, metadata or {})
