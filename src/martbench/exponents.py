"""Infinite exponent sequences with geometric tails.

An exponent family (p_1, p_2, ...) with sum(1/p_i) = 1/p is stored as an
explicit head (p_1 .. p_m) plus a geometric tail of reciprocals,

    1/p_{m+k} = s * (1 - r) * r**(k-1),   k = 1, 2, ...

where s >= 0 is the total reciprocal mass of the tail and r in (0, 1) its
decay ratio.  With this restriction every aggregate needed downstream is
available either in closed form (the reciprocal sum is head sum + s) or as
a certified two-sided bound (the infinite product of conjugate exponents).
s = 0 is the degenerate finite family: the sequence is just its head.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .report import ABS_FLOOR


@dataclass(frozen=True)
class CertifiedInterval:
    """Two-sided enclosure [lo, hi] of an exact real quantity."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def rel_width(self) -> float:
        return self.width / max(abs(self.lo), ABS_FLOOR)

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class ExponentSequence:
    """Exponent family p_1, p_2, ... as explicit head plus geometric tail.

    head       -- the leading exponents p_1 .. p_m, each in (1, inf)
    tail_mass  -- s = sum_{i>m} 1/p_i (0 for a finite family)
    tail_ratio -- geometric decay ratio r of the tail reciprocals
    """

    head: tuple[float, ...]
    tail_mass: float = 0.0
    tail_ratio: float = 0.5
    # 1/p = sum of all reciprocals, closed form: head sum + tail mass.  Set
    # once at construction, not as a cached_property: that writes the instance
    # __dict__, and on CPython 3.11 every later attribute read then slows (by
    # about 30% per tail_reciprocal call in the conjugate-product loops)
    aggregate_reciprocal: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        agg = math.fsum(1.0 / p for p in self.head) + self.tail_mass
        object.__setattr__(self, "aggregate_reciprocal", agg)

    @property
    def head_len(self) -> int:
        return len(self.head)

    @property
    def is_finite_family(self) -> bool:
        return self.tail_mass == 0.0

    def tail_reciprocal(self, k: int) -> float:
        """1/p_{m+k} for k >= 1."""
        return self.tail_mass * (1.0 - self.tail_ratio) * self.tail_ratio ** (k - 1)

    def to_json(self) -> dict:
        return {
            "head": list(self.head),
            "tail_mass": self.tail_mass,
            "tail_ratio": self.tail_ratio,
        }


def make_exponent_sequence(
    head: Sequence[float], tail_mass: float = 0.0, tail_ratio: float = 0.5
) -> ExponentSequence:
    """Validate and build an ExponentSequence.

    Requires every head exponent in (1, inf), tail_mass >= 0, tail_ratio in
    (0, 1), and for a nonempty tail tail_mass * (1 - tail_ratio) < 1 so the
    first tail exponent already exceeds 1.  The total reciprocal mass must
    be positive and finite.  A string head is refused, not read digit by digit.
    """
    if isinstance(head, str):
        raise TypeError(f"head must be a list of exponents, not the string {head!r}")
    head_t = tuple(float(p) for p in head)
    for p in head_t:
        if not (1.0 < p < math.inf):
            raise ValueError(f"head exponent {p} not in (1, inf)")
    tail_mass = float(tail_mass)
    tail_ratio = float(tail_ratio)
    if not (tail_mass >= 0.0 and math.isfinite(tail_mass)):
        raise ValueError(f"tail_mass {tail_mass} must be finite and >= 0")
    if not (0.0 < tail_ratio < 1.0):
        raise ValueError(f"tail_ratio {tail_ratio} not in (0, 1)")
    if tail_mass > 0.0 and tail_mass * (1.0 - tail_ratio) >= 1.0:
        raise ValueError(
            "first tail exponent would be <= 1 "
            f"(tail_mass * (1 - tail_ratio) = {tail_mass * (1.0 - tail_ratio)})"
        )
    seq = ExponentSequence(head_t, tail_mass, tail_ratio)
    agg = seq.aggregate_reciprocal
    if not (0.0 < agg < math.inf):
        raise ValueError(f"aggregate reciprocal {agg} not in (0, inf)")
    return seq


def sequence_from_json(obj: dict) -> ExponentSequence:
    """Parse {"head": [...], "tail_mass": s, "tail_ratio": r}."""
    if not isinstance(obj, dict):
        raise ValueError("must be a JSON object")
    return make_exponent_sequence(
        obj["head"], obj.get("tail_mass", 0.0), obj.get("tail_ratio", 0.5)
    )


def exponent_at(seq: ExponentSequence, i: int) -> float:
    """p_i, 1-based.  Tail indices use the geometric reciprocal formula."""
    if i < 1:
        raise IndexError(f"index {i} must be >= 1")
    if i <= seq.head_len:
        return seq.head[i - 1]
    if seq.is_finite_family:
        raise IndexError(f"index {i} beyond finite family of length {seq.head_len}")
    return 1.0 / seq.tail_reciprocal(i - seq.head_len)


def conjugate_at(seq: ExponentSequence, i: int) -> float:
    """p'_i with 1/p_i + 1/p'_i = 1."""
    if i < 1:
        raise IndexError(f"index {i} must be >= 1")
    if i <= seq.head_len:
        p = seq.head[i - 1]
        return p / (p - 1.0)
    if seq.is_finite_family:
        raise IndexError(f"index {i} beyond finite family of length {seq.head_len}")
    # 1/(1 - t) from the exact tail reciprocal t avoids a double division.
    return 1.0 / (1.0 - seq.tail_reciprocal(i - seq.head_len))


# Directed padding applied to certified endpoints to absorb float rounding
# of the underlying exp/log/pow evaluations.
_ENDPOINT_PAD = 1e-13


def _tail_log_bracket(seq: ExponentSequence, prefix: int) -> tuple[float, float]:
    """Bracket of sum_{k>=1} -ln(1 - t_k) over the tail reciprocals t_k.

    The first `prefix` terms are summed numerically; the remainder R obeys
    sum_{k>prefix} t_k <= R <= (sum_{k>prefix} t_k) / (1 - t_{prefix+1})
    because t <= -ln(1-t) <= t/(1-t) and the t_k decrease.  The remainder
    mass has the closed form s * r**prefix.
    """
    terms = [-math.log1p(-seq.tail_reciprocal(k)) for k in range(1, prefix + 1)]
    partial = math.fsum(terms)
    rest = seq.tail_mass * seq.tail_ratio**prefix
    t_next = seq.tail_reciprocal(prefix + 1)
    return partial + rest, partial + rest / (1.0 - t_next)


def conjugate_product(seq: ExponentSequence, rel_tol: float = 1e-9) -> CertifiedInterval:
    """Certified interval around prod_{i>=1} p'_i, relative width <= rel_tol.

    The head conjugates are multiplied directly; a finite family gives the
    degenerate exact interval.  The tail contributes
    exp(sum_k -ln(1 - t_k)) whose log-sum is bracketed by _tail_log_bracket
    with an adaptively grown numeric prefix, tightened to half the
    requested tolerance and then padded symmetrically to the full one.
    The product is finite for every valid sequence since the reciprocals
    are summable, but it can pass the float range: the interval is then
    [sys.float_info.max, inf].
    """
    if not (rel_tol > 0.0):
        raise ValueError("rel_tol must be positive")
    head_prod = 1.0
    for p in seq.head:
        head_prod *= p / (p - 1.0)
    if seq.is_finite_family:
        return CertifiedInterval(head_prod, head_prod)

    target = max(rel_tol, 4e-13) / 2.0
    prefix = 8
    while True:
        lo_log, hi_log = _tail_log_bracket(seq, prefix)
        if math.expm1(hi_log - lo_log) <= target or prefix >= 1 << 22:
            break
        prefix *= 2
    pad = rel_tol / 4.0 + _ENDPOINT_PAD
    lo = _times_exp(head_prod, lo_log) * (1.0 - pad)
    hi = _times_exp(head_prod, hi_log) * (1.0 + pad)
    # an overflowed lower end means a product past the float range: [max, inf]
    return CertifiedInterval(min(lo, sys.float_info.max), hi)


def _times_exp(x: float, y: float) -> float:
    """x * exp(y), inf past the float range, where math.exp raises."""
    try:
        return x * math.exp(y)
    except OverflowError:
        return math.inf


def xi_constant(n: int) -> float:
    """Dimensional constant 3**n / (v_n * (n/2)**(n/2)) with v_n the unit
    ball volume pi**(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    v_n = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return 3.0**n / (v_n * (n / 2.0) ** (n / 2.0))


def hl_bound_constant(
    seq: ExponentSequence, n: int, rel_tol: float = 1e-9
) -> CertifiedInterval:
    """Certified interval for xi_n**(1/p) * prod p'_i, the strong-type
    bound constant of the maximal operator with infinitely many factors."""
    scale = xi_constant(n) ** seq.aggregate_reciprocal
    prod = conjugate_product(seq, rel_tol)
    return CertifiedInterval(
        prod.lo * scale * (1.0 - _ENDPOINT_PAD),
        prod.hi * scale * (1.0 + _ENDPOINT_PAD),
    )
