"""Doob maximal operators, weighted measures, weak-type norms, and the
classical Doob inequality check.

The generalized maximal operator takes the supremum over levels of the
infinite product of conditional expectations of the components.  On a
depth-N space the conditional expectations are constant from level N on,
so the finite maximum over levels 0..N is the exact supremum.
"""

from __future__ import annotations

import numpy as np

from .exponents import ExponentSequence
from .filtration import (
    StoppingTime,
    TreeSpace,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp_matrix,
    first_passage_time,
)
from .holder import FunctionVector, level_products, lp_norm
from .report import REL_TOL, VerificationReport, check_inequality


def doob_maximal(space: TreeSpace, f: np.ndarray) -> np.ndarray:
    """Mf = max over levels of |E_n(f)|, leaf-wise."""
    f = np.asarray(f, dtype=float)
    return np.abs(cond_exp_matrix(space, f)).max(axis=0)


def gen_doob_maximal(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    masked_by=None,
) -> np.ndarray:
    """Supremum over levels of the infinite product prod_i E_n(f_i).

    With a single active component this is exactly doob_maximal; with a
    mask the tail sees the indicator, so the result vanishes wherever no
    atom through the point lies inside the mask.
    """
    return level_products(space, fvec, seq, masked_by).max(axis=0)


def gen_weighted_maximal(
    space: TreeSpace,
    gvec: FunctionVector,
    sigmas,
    seq: ExponentSequence,
) -> np.ndarray:
    """Supremum over levels of prod_i E_n^{sigma_i}(g_i); components past
    the supplied g's or sigmas default to 1 and contribute the factor 1."""
    if gvec.mask is not None:
        raise ValueError("masked vectors are not supported for the weighted maximal")
    sigmas = [as_leaf_vector(space, s) for s in sigmas]
    for s in sigmas:
        if not np.all(s > 0.0):
            raise ValueError("sigma components must be strictly positive")
    n_slots = max(gvec.n_active, len(sigmas))
    if n_slots > seq.head_len:
        raise ValueError(f"{n_slots} components exceed exponent head length {seq.head_len}")
    ones = np.ones(space.n_leaves)
    rows = np.ones((space.depth + 1, space.n_leaves))
    for i in range(n_slots):
        g = gvec.active[i] if i < gvec.n_active else ones
        s = sigmas[i] if i < len(sigmas) else ones
        rows *= cond_exp_matrix(space, g, s)
    return rows.max(axis=0)


def weighted_measure(space: TreeSpace, leaf_set, weight=None) -> float:
    """|B|_w = integral of the weight over the leaf set (w = 1 if None)."""
    mask = as_leaf_mask(space, leaf_set)
    w = space.leaf_probs
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        if not np.all(weight > 0.0):
            raise ValueError("weight must be strictly positive")
        w = w * weight
    return float(w[mask].sum())


def weak_lp_norm(space: TreeSpace, g: np.ndarray, p: float, v) -> float:
    """sup over lambda of lambda * |{g > lambda}|_v**(1/p), computed
    exactly as the maximum over distinct values t of t * |{g >= t}|_v**(1/p)
    by one descending sort and a cumulative sum."""
    if not p > 0.0:
        raise ValueError(f"exponent {p} must be positive")
    g = as_leaf_vector(space, g, nonnegative=True)
    v = np.asarray(v, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError("weight must be strictly positive")
    order = np.argsort(-g, kind="stable")
    values = g[order]
    masses = np.cumsum((space.leaf_probs * v)[order])
    best = 0.0
    for i, t in enumerate(values):
        if t <= 0.0:
            break
        if i + 1 < len(values) and values[i + 1] == t:
            continue  # |{g >= t}|_v is the mass at the end of the tied block
        best = max(best, float(t) * masses[i] ** (1.0 / p))
    return best


def level_set_stopping_time(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    threshold: float,
    masked_by=None,
) -> StoppingTime:
    """tau = least n with prod_i E_n(f_i) > threshold, infinite if none.

    The per-level products use exact tail semantics, so the result is the
    first passage of an adapted process and is always a stopping time.
    """
    rows = level_products(space, fvec, seq, masked_by)
    return first_passage_time(space, rows, threshold)


def doob_inequality_check(
    space: TreeSpace,
    g: np.ndarray,
    q: float,
    sigma,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """|| sup_n E_n^sigma(g) ||_{L^q(sigma)} <= q' ||g||_{L^q(sigma)}."""
    if not q > 1.0:
        raise ValueError(f"exponent {q} must be > 1")
    g = as_leaf_vector(space, g, nonnegative=True)
    sup = cond_exp_matrix(space, g, sigma).max(axis=0)
    q_conj = q / (q - 1.0)
    lhs = lp_norm(space, sup, q, sigma)
    rhs = lp_norm(space, g, q, sigma)
    return check_inequality(
        "doob",
        lhs,
        rhs,
        constant=q_conj,
        tolerance=tolerance,
        metadata={"q": q, "space": space.digest()},
    )
