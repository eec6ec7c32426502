"""Scalar groundwork: infinite products of numbers and the convexity
inequalities (exp-Jensen, weighted AM-GM, Young) behind the function-level
Hoelder machinery.

Infinite objects follow the eventually-constant convention: a sequence is
an explicit head plus one constant repeated over all tail indices.  An
infinite product of a constant factor c in [0, 1] has an exact limit, 0
for c < 1 and 1 for c = 1, so no truncation is ever needed.  Weight
sequences lambda_i in (0, 1) with sum 1 reuse the geometric-tail scheme of
ExponentSequence through the reciprocals lambda_i = 1/p_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exponents import ExponentSequence, exponent_at, make_exponent_sequence
from .report import ABS_FLOOR, REL_TOL, VerificationReport, check_inequality


class DivergentProductError(ValueError):
    """Raised when an infinite product has a constant tail factor > 1."""


@dataclass(frozen=True)
class ProductValue:
    """Exact limit of partial products head * c * c * ... with c <= 1.

    tail_class is "unit" (c = 1, the tail multiplies by nothing) or
    "vanishes" (c < 1, the limit is 0 regardless of the head).
    """

    finite_part: float
    tail_class: str  # "unit" | "vanishes"

    @property
    def value(self) -> float:
        return self.finite_part if self.tail_class == "unit" else 0.0


def product_eval(head_factors: Sequence[float], tail_constant: float = 1.0) -> ProductValue:
    """Exact infinite product of nonnegative head factors followed by a
    constant tail factor.  Tail factors > 1 diverge and are rejected."""
    tail_constant = float(tail_constant)
    if math.isnan(tail_constant) or tail_constant > 1.0:
        raise DivergentProductError(
            f"constant tail factor {tail_constant} gives a divergent product"
        )
    if tail_constant < 0.0:
        raise ValueError(f"tail factor {tail_constant} must be nonnegative")
    finite = 1.0
    for c in head_factors:
        c = float(c)
        if not (c >= 0.0) or math.isinf(c):
            raise ValueError(f"head factor {c} must be finite and nonnegative")
        finite *= c
    tail_class = "unit" if tail_constant == 1.0 else "vanishes"
    return ProductValue(finite, tail_class)


@dataclass(frozen=True)
class WeightedSequencePair:
    """Convex weights lambda_i (head + geometric tail, sum exactly 1)
    paired with values b_1..b_m on the head and one constant over the tail.

    The weights are stored through their reciprocal exponents: the
    ExponentSequence with 1/p_i = lambda_i must have aggregate reciprocal 1.
    """

    weights: ExponentSequence
    values: tuple[float, ...]
    tail_value: float

    @property
    def head_lambdas(self) -> tuple[float, ...]:
        return tuple(1.0 / p for p in self.weights.head)

    @property
    def tail_lambda_mass(self) -> float:
        return self.weights.tail_mass


def make_weighted_pair(
    lambda_head: Sequence[float],
    tail_mass: float,
    tail_ratio: float,
    values: Sequence[float],
    tail_value: float,
) -> WeightedSequencePair:
    """Validate lambda_i in (0, 1) with total mass 1 and aligned values."""
    lams = [float(x) for x in lambda_head]
    for lam in lams:
        if not (0.0 < lam < 1.0):
            raise ValueError(f"weight {lam} not in (0, 1)")
    weights = make_exponent_sequence([1.0 / lam for lam in lams], tail_mass, tail_ratio)
    total = weights.aggregate_reciprocal
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {total}, expected 1")
    vals = tuple(float(v) for v in values)
    if len(vals) != len(lams):
        raise ValueError(f"{len(vals)} values for {len(lams)} head weights")
    return WeightedSequencePair(weights, vals, float(tail_value))


def exp_jensen_check(pair: WeightedSequencePair, tolerance: float = REL_TOL) -> VerificationReport:
    """exp(sum lambda_i b_i) <= sum lambda_i exp(b_i).

    Both sides use the closed-form tail: the constant tail value b
    contributes b * s to the weighted sum and exp(b) * s to the bound.
    """
    lams = pair.head_lambdas
    s = pair.tail_lambda_mass
    mean = math.fsum(l * b for l, b in zip(lams, pair.values)) + s * pair.tail_value
    lhs = math.exp(mean)
    rhs = math.fsum(l * math.exp(b) for l, b in zip(lams, pair.values))
    rhs += s * math.exp(pair.tail_value)
    return check_inequality(
        "exp-jensen", lhs, rhs, tolerance=tolerance, metadata={"head_len": len(lams)}
    )


def weighted_am_gm(pair: WeightedSequencePair, tolerance: float = REL_TOL) -> VerificationReport:
    """prod a_i**lambda_i <= sum lambda_i a_i for nonnegative a_i.

    The powered tail collapses in closed form: the constant tail value a
    contributes the single factor a**s (and exactly 0 when a = 0 with a
    nonempty tail, since every tail factor is then 0).
    """
    lams = pair.head_lambdas
    s = pair.tail_lambda_mass
    a_tail = pair.tail_value
    for a in (*pair.values, a_tail):
        if not (a >= 0.0):
            raise ValueError(f"value {a} must be nonnegative")
    lhs = 1.0
    for l, a in zip(lams, pair.values):
        lhs *= a**l
    if s > 0.0:
        lhs *= a_tail**s if a_tail > 0.0 else 0.0
    rhs = math.fsum(l * a for l, a in zip(lams, pair.values)) + s * a_tail
    return check_inequality(
        "weighted-am-gm", lhs, rhs, tolerance=tolerance, metadata={"head_len": len(lams)}
    )


def _young_tail_sum(seq: ExponentSequence, c: float) -> float:
    """sum_k c**p_{m+k} / p_{m+k} over the tail, exact for c = 1 (mass s).
    For 0 <= c < 1 the terms are added in order until the last one certifies
    the rest: every later term is at most c**p_{K+1} * t_j with t_j = 1/p_j
    geometric of ratio r, so the remainder after term K is at most
    term_K / (1 - r), and the sum stops once that is below 1e-18 of the
    total.  A sum that has not stopped after 2**22 terms raises ValueError."""
    if seq.tail_mass == 0.0:
        return 0.0
    if c == 1.0:
        return seq.tail_mass
    if c == 0.0:
        return 0.0
    total, stop = 0.0, 1e-18 * (1.0 - seq.tail_ratio)
    for k in range(1, (1 << 22) + 1):
        recip = seq.tail_reciprocal(k)
        term = c ** (1.0 / recip) * recip
        total += term
        if term <= stop * max(total, ABS_FLOOR):
            return total
    raise ValueError(f"the Young tail sum at c = {c} has not converged after 2**22 terms")


def young_check(
    seq: ExponentSequence,
    values: Sequence[float],
    tail_value: float = 1.0,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """prod c_i <= sum c_i**p_i / p_i for exponents with sum 1/p_i = 1.

    values covers the head of seq; tail_value is the constant c over all
    tail indices (tail_value > 1 diverges on both sides and is rejected).
    """
    agg = seq.aggregate_reciprocal
    if abs(agg - 1.0) > 1e-12:
        raise ValueError(f"exponent reciprocals sum to {agg}, expected 1")
    vals = [float(v) for v in values]
    if len(vals) != seq.head_len:
        raise ValueError(f"{len(vals)} values for head of length {seq.head_len}")
    for c in (*vals, tail_value):
        if not (c >= 0.0):
            raise ValueError(f"value {c} must be nonnegative")
    lhs = product_eval(vals, tail_value if not seq.is_finite_family else 1.0).value
    rhs = math.fsum(
        c ** exponent_at(seq, i + 1) / exponent_at(seq, i + 1) for i, c in enumerate(vals)
    )
    rhs += _young_tail_sum(seq, float(tail_value))
    return check_inequality(
        "young", lhs, rhs, tolerance=tolerance, metadata={"head_len": seq.head_len}
    )
