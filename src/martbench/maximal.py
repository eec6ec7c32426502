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
    _level_masses,
    _mean_atoms,
    _weighted_probs,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp_atoms,
)
from .holder import FunctionVector, _component_slots, level_product_atoms, lp_norm
from .report import REL_TOL, VerificationReport, check_inequality


def doob_maximal(space: TreeSpace, f: np.ndarray) -> np.ndarray:
    """Mf = max over levels of |E_n(f)|, leaf-wise."""
    return space.level_sup(np.abs(cond_exp_atoms(space, f)))


def gen_doob_maximal(space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence) -> np.ndarray:
    """Supremum over levels of the infinite product prod_i E_n(f_i).

    With a single active component this is exactly doob_maximal; with a
    mask the tail sees the indicator, so the result vanishes wherever no
    atom through the point lies inside the mask.  A vector whose mask is a
    (B, leaves) stack gives one row per mask (level_product_atoms).
    """
    return space.level_sup(level_product_atoms(space, fvec, seq))


def _weighted_rows(space: TreeSpace, gvec: FunctionVector, sigmas, masses, seq: ExponentSequence):
    """prod_i E_n^{sigma_i}(g_i) over the occupied head slots at every level,
    per atom, masses[i] the sigma_i-masses of the atoms (_level_masses of
    leaf_probs * sigma_i, so sigma_i is positive); a g or sigma past the
    supplied ones is 1 and contributes 1, a sigma of 1 the atom masses.
    Past the float range a product is inf."""
    slots = _component_slots(space, gvec.active, sigmas, seq)
    masses = [*masses, *[space.atom_masses] * (len(slots) - len(masses))]
    rows = np.ones(space.atom_offsets[-1])
    with np.errstate(over="ignore"):
        for (g, s), dens in zip(slots, masses):
            rows *= _mean_atoms(space, space.leaf_probs * g * s, dens, g)
    return rows


def gen_weighted_maximal(
    space: TreeSpace,
    gvec: FunctionVector,
    sigmas,
    seq: ExponentSequence,
) -> np.ndarray:
    """Supremum over levels of prod_i E_n^{sigma_i}(g_i) (_weighted_rows);
    components past the supplied g's or sigmas contribute the factor 1."""
    if gvec.mask is not None:
        raise ValueError("masked vectors are not supported for the weighted maximal")
    sigmas = [as_leaf_vector(space, s) for s in sigmas]
    masses = [_level_masses(space, _weighted_probs(space, s)) for s in sigmas]  # checks sigma > 0
    return space.level_sup(_weighted_rows(space, gvec, sigmas, masses, seq))


def weighted_measure(space: TreeSpace, leaf_set, weight=None) -> float:
    """|B|_w = integral of the weight over the leaf set (w = 1 if None)."""
    mask = as_leaf_mask(space, leaf_set)
    return float(_weighted_probs(space, weight)[mask].sum())


def _level_sets(g: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values t of g that are not <= 0 (a NaN is kept, each on
    its own), descending, and the mass of {g >= t} under the leaf masses
    probs for each: one descending sort, and the cumulative mass at the last
    entry of each tied block."""
    order = np.argsort(-g, kind="stable")
    values = g[order]
    masses = np.cumsum(probs[order])
    last = np.empty(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[-1:] = True
    last &= ~(values <= 0.0)
    return values[last], masses[last]


def weak_lp_norm(space: TreeSpace, g: np.ndarray, p: float, v) -> float:
    """sup over lambda of lambda * |{g > lambda}|_v**(1/p), computed
    exactly as the maximum over distinct values t of t * |{g >= t}|_v**(1/p)
    over _level_sets, after checking that v is strictly positive.  g must be
    finite; verify_testing_to_weak reads _level_sets itself, so a maximal
    function past the float range fails it."""
    if not p > 0.0:
        raise ValueError(f"exponent {p} must be positive")
    values, masses = _level_sets(as_leaf_vector(space, g, nonnegative=True),
                                 _weighted_probs(space, v))
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.max(values * masses ** (1.0 / p), initial=0.0))


def level_set_stopping_time(
    space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence, threshold: float
) -> StoppingTime:
    """tau = least n with prod_i E_n(f_i) > threshold, infinite if none.

    The per-level products use exact tail semantics, so the result is the
    first passage (TreeSpace.first_passages) of an adapted process and is
    always a stopping time.  A stacked vector raises.
    """
    atoms = level_product_atoms(space, fvec, seq)
    if atoms.ndim != 1:
        raise ValueError(f"expected one vector, got a stack of {len(atoms)}")
    return StoppingTime(space.first_passages(atoms, [threshold])[0])


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
    sup = space.level_sup(cond_exp_atoms(space, g, sigma))
    q_conj = q / (q - 1.0)
    lhs = lp_norm(space, sup, q, sigma)
    rhs = lp_norm(space, g, q, sigma)
    return check_inequality(
        "doob",
        lhs,
        rhs,
        constant=q_conj,
        tolerance=tolerance,
        metadata={"q": q, "space": space.digest},
    )
