"""Weighted Lp norms and generalized Hoelder inequalities for function
vectors with infinitely many components.

A FunctionVector stores finitely many nontrivial nonnegative components;
all remaining components equal the constant 1, or the indicator of the
mask when one is set.  Infinite tails are then exact: an unmasked tail
contributes the factor 1 everywhere, while a masked tail multiplies in
the indicator infinitely often, which kills every point whose atom is not
fully inside the mask.  Norm products aggregate the masked tail in closed
form as |Q|**s with s the tail reciprocal mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentSequence
from .filtration import (
    TreeSpace,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp,
    cond_exp_matrix,
)
from .report import REL_TOL, VerificationReport, check_inequality


@dataclass(frozen=True, eq=False)
class FunctionVector:
    """Finitely many nonnegative components plus a constant-1 tail, all
    multiplied by the indicator of `mask` when it is not None."""

    active: tuple[np.ndarray, ...]
    mask: np.ndarray | None = None

    @property
    def n_active(self) -> int:
        return len(self.active)

    def to_json(self) -> dict:
        return {
            "active": [[float(x) for x in f] for f in self.active],
            "mask": None if self.mask is None else [bool(b) for b in self.mask],
        }


def function_vector(space: TreeSpace, active, mask=None) -> FunctionVector:
    comps = tuple(as_leaf_vector(space, f, nonnegative=True) for f in active)
    m = None if mask is None else as_leaf_mask(space, mask)
    return FunctionVector(comps, m)


def function_vector_from_json(space: TreeSpace, obj: dict) -> FunctionVector:
    return function_vector(space, obj["active"], obj.get("mask"))


def trial_vector(
    space: TreeSpace, m: int, seed: int, trial: int, spread: float
) -> FunctionVector:
    """The seeded trial vectors with m components: trial 0 is all ones,
    trial 1 the indicator of the first level-1 atom, and every later trial
    draws log-uniform components in [1/spread, spread] from
    default_rng([seed, trial])."""
    if trial == 0:
        comps = [np.ones(space.n_leaves)] * m
    elif trial == 1:
        chi = np.zeros(space.n_leaves)
        chi[space.atom_slice(min(1, space.depth), 0)] = 1.0
        comps = [chi] * m
    else:
        rng = np.random.default_rng([seed, trial])
        bound = math.log(spread)
        comps = [np.exp(rng.uniform(-bound, bound, space.n_leaves)) for _ in range(m)]
    return FunctionVector(tuple(comps), None)


def _check_alignment(fvec: FunctionVector, seq: ExponentSequence) -> None:
    if fvec.n_active > seq.head_len:
        raise ValueError(
            f"{fvec.n_active} active components exceed exponent head length {seq.head_len}"
        )


def _combined_mask(
    space: TreeSpace, fvec: FunctionVector, masked_by
) -> np.ndarray | None:
    extra = None if masked_by is None else as_leaf_mask(space, masked_by)
    if fvec.mask is None:
        return extra
    return fvec.mask if extra is None else (fvec.mask & extra)


def lp_norm(space: TreeSpace, f: np.ndarray, p: float, weight=None) -> float:
    """(integral of |f|**p against weight * mu)**(1/p), any p > 0."""
    if not p > 0.0:
        raise ValueError(f"exponent {p} must be positive")
    f = np.asarray(f, dtype=float)
    w = space.leaf_probs
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if not np.all(weight > 0.0):
            raise ValueError("weight must be strictly positive")
        w = w * weight
    return float(np.sum(w * np.abs(f) ** p) ** (1.0 / p))


def product_function(space: TreeSpace, fvec: FunctionVector, masked_by=None) -> np.ndarray:
    """Pointwise infinite product of the components.

    Off a mask the result is exactly 0 (the tail indicator repeats
    infinitely often); elsewhere it is the product of the active values.
    """
    mask = _combined_mask(space, fvec, masked_by)
    out = np.ones(space.n_leaves)
    for f in fvec.active:
        out = out * f
    if mask is not None:
        out = np.where(mask, out, 0.0)
    return out


def level_products(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    masked_by=None,
) -> np.ndarray:
    """Matrix whose row n is the infinite product prod_i E_n(f_i).

    Unmasked tail components average to exactly 1.  With a mask Q and a
    nonempty tail, row n picks up the factor E_n(chi_Q) infinitely often,
    so it survives only on atoms contained in Q, decided from integer leaf
    counts per atom.  A finite family (tail mass 0) has no infinite tail; the
    mask then also applies to the constant-1 components padding the head,
    each contributing one factor E_n(chi_Q).
    """
    _check_alignment(fvec, seq)
    mask = _combined_mask(space, fvec, masked_by)
    rows = np.ones((space.depth + 1, space.n_leaves))
    if mask is None:
        for f in fvec.active:
            rows *= cond_exp_matrix(space, f)
        return rows
    mf = mask.astype(float)
    for f in fvec.active:
        rows *= cond_exp_matrix(space, f * mf)
    if not seq.is_finite_family:
        rows *= np.stack([
            space.expand(space.atom_sums(mask, n) == space.atom_size(n), n)
            for n in space.levels
        ])
    elif fvec.n_active < seq.head_len:
        rows *= cond_exp_matrix(space, mf) ** (seq.head_len - fvec.n_active)
    return rows


def function_norms_product(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    weights=None,
) -> float:
    """prod_i ||f_i||_{L^{p_i}(w_i)} with exact tail aggregation.

    weights, when given, is a list of positive leaf vectors aligned with
    the exponent head; missing entries (and the tail) weigh by 1.  Tail
    components are 1, or chi_Q under a mask, so a masked tail contributes
    |Q|**s in closed form and masked head padding the factors |Q|**(1/p_i).
    """
    _check_alignment(fvec, seq)
    weights = list(weights) if weights is not None else []
    if len(weights) > seq.head_len:
        raise ValueError(
            f"{len(weights)} weights exceed exponent head length {seq.head_len}"
        )
    mask = fvec.mask
    mf = None if mask is None else mask.astype(float)
    ones = np.ones(space.n_leaves)
    total = 1.0
    n_slots = max(fvec.n_active, len(weights)) if mask is None else seq.head_len
    for i in range(n_slots):
        f = fvec.active[i] if i < fvec.n_active else ones
        if mf is not None:
            f = f * mf
        w = weights[i] if i < len(weights) else None
        total *= lp_norm(space, f, seq.head[i], w)
    if mask is not None and not seq.is_finite_family:
        q_mass = float(np.sum(space.leaf_probs, where=mask))
        total *= q_mass**seq.tail_mass
    return total


def holder_integral_check(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """||prod f_i||_{L^p} <= prod ||f_i||_{L^{p_i}} with 1/p the aggregate
    reciprocal of the exponent sequence."""
    _check_alignment(fvec, seq)
    rp = seq.aggregate_reciprocal
    prod = product_function(space, fvec)
    lhs = lp_norm(space, prod, 1.0 / rp)
    rhs = function_norms_product(space, fvec, seq)
    return check_inequality(
        "holder-integral",
        lhs,
        rhs,
        tolerance=tolerance,
        metadata={"p": 1.0 / rp, "n_active": fvec.n_active, "space": space.digest()},
    )


def holder_conditional_check(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    n: int,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """E_n(prod f_i**p)**(1/p) <= prod E_n(f_i**p_i)**(1/p_i) on every
    level-n atom; the reported sides come from the worst atom."""
    _check_alignment(fvec, seq)
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    mask = fvec.mask
    mf = None if mask is None else mask.astype(float)

    prod = product_function(space, fvec)
    lhs_leaf = cond_exp(space, prod**p, n) ** rp

    rhs_leaf = np.ones(space.n_leaves)
    for i, f in enumerate(fvec.active):
        if mf is not None:
            f = f * mf
        p_i = seq.head[i]
        rhs_leaf *= cond_exp(space, f**p_i, n) ** (1.0 / p_i)
    if mask is not None:
        # masked padding and tail aggregate: E_n(chi_Q) to the total
        # reciprocal mass beyond the active components
        rest = rp - math.fsum(1.0 / seq.head[i] for i in range(fvec.n_active))
        if rest > 0.0:
            rhs_leaf *= cond_exp(space, mf, n) ** rest

    margin = rhs_leaf + tolerance * np.abs(rhs_leaf) + 1e-300
    ok = bool(np.all(lhs_leaf <= margin))
    worst = int(np.argmax(lhs_leaf - margin))
    report = check_inequality(
        "holder-conditional",
        float(lhs_leaf[worst]),
        float(rhs_leaf[worst]),
        tolerance=tolerance,
        metadata={"level": n, "n_atoms": space.n_atoms(n), "space": space.digest()},
    )
    report.passed = ok
    return report
