"""Shared verification report for inequality checks.

A report records both sides of one inequality LHS <= constant * RHS, the
slack constant * RHS - LHS, and a verdict taken with relative tolerance
plus a tiny absolute floor so exact-zero sides compare cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REL_TOL = 1e-12
ABS_FLOOR = 1e-300


@dataclass
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


def check_inequality(
    inequality: str,
    lhs: float,
    rhs: float,
    constant: float = 1.0,
    tolerance: float = REL_TOL,
    metadata: dict | None = None,
) -> VerificationReport:
    """Build a report for LHS <= constant * RHS at the given tolerance."""
    bound = constant * rhs
    slack = bound - lhs
    passed = bool(lhs <= bound + tolerance * abs(bound) + ABS_FLOOR)
    return VerificationReport(
        inequality=inequality,
        lhs=float(lhs),
        rhs=float(rhs),
        constant=float(constant),
        slack=float(slack),
        passed=passed,
        tolerance=tolerance,
        metadata=metadata or {},
    )
