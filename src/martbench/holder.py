"""Weighted Lp norms and generalized Hoelder inequalities for function
vectors with infinitely many components.

A FunctionVector stores finitely many nontrivial nonnegative components;
all remaining components equal the constant 1, or the indicator of the
mask when one is set.  Infinite tails are then exact: an unmasked tail
contributes the factor 1 everywhere, while a masked tail multiplies in
the indicator infinitely often, which kills every point whose atom is not
fully inside the mask.  Norm products prod_i (int_Q w_i |f_i|**p_i)**(1/p_i)
read their factors from _norm_parts, the one home of the pad rule: under a
mask Q the head slots past the occupied ones and the infinite tail together
contribute |Q|**pad, with pad = 1/p - sum of 1/p_i over the occupied slots
(_pad).  _norms_product forms every such product from its factors' leaf
masses, in one order of float operations.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentSequence
from .filtration import (
    TreeSpace,
    _as_bool,
    _frozen,
    _read_only,
    _weighted_probs,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp_atoms,
)
from .report import REL_TOL, VerificationReport, _margin, _power, _within_margin, check_inequality


@dataclass(frozen=True, eq=False)
class FunctionVector:
    """Finitely many nonnegative components plus a constant-1 tail, all
    multiplied by the indicator of `mask` when it is not None.  Both are
    held as read-only arrays (writable arguments are copied); the mask as
    bools, its entries checked (filtration._as_bool: a 0.5 or a NaN raises
    ValueError)."""

    active: tuple[np.ndarray, ...]
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "active", tuple(map(_read_only, self.active)))
        if self.mask is not None:
            object.__setattr__(self, "mask", _read_only(_as_bool(np.asarray(self.mask))))

    @property
    def n_active(self) -> int:
        return len(self.active)

    def to_json(self) -> dict:
        return {
            "active": [f.tolist() for f in self.active],
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
    """The seeded trial vector with m components: the rows of its
    _trial_block, read-only and kept without a copy."""
    shared = trial in (0, 1)  # one row, which every component shares
    block = _frozen(_trial_block(space, m, seed, trial, spread,
                                 np.empty((1 if shared else m, space.n_leaves))))
    return FunctionVector((block[0],) * m if shared else tuple(block), None)


def _trial_block(space: TreeSpace, m: int, seed: int, trial: int, spread: float,
                 out: np.ndarray) -> np.ndarray:
    """Fills out, an (m, leaves) array (any rows for trials 0 and 1), with
    the trial's m components and returns it: trial 0 all ones, trial 1 the
    indicator of the first level-1 atom, later trials log-uniform in
    [1/spread, spread], the exponential of one default_rng([seed, trial])
    uniform draw, taken into out.  The one trial generator, of trial_vector
    and of theorems._strong_ratios."""
    if trial == 0:
        out[:] = 1.0
    elif trial == 1:
        out[:] = 0.0
        out[:, space.atom_slice(min(1, space.depth), 0)] = 1.0
    else:
        bound = math.log(spread)
        draw = np.random.default_rng([seed, trial]).uniform(-bound, bound, (m, space.n_leaves))
        np.exp(draw, out=out)
    return out


def _check_alignment(fvec: FunctionVector, seq: ExponentSequence) -> None:
    if fvec.n_active > seq.head_len:
        raise ValueError(
            f"{fvec.n_active} active components exceed exponent head length {seq.head_len}"
        )


def _component_slots(space: TreeSpace, active, weights, seq: ExponentSequence) -> list:
    """(f_i, w_i) pairs over the occupied head slots; an f or w past the
    supplied ones is the constant 1, built only when a slot needs it."""
    used = max(len(active), len(weights))
    if used > seq.head_len:
        raise ValueError(f"{used} components exceed exponent head length {seq.head_len}")
    fs, ws = list(active), list(weights)
    if len(fs) < used or len(ws) < used:
        ones = np.ones(space.n_leaves)
        fs += [ones] * (used - len(fs))
        ws += [ones] * (used - len(ws))
    return list(zip(fs, ws))


def _norm_parts(
    space: TreeSpace, active, seq: ExponentSequence, weights=(), mask=None
) -> list:
    """The pairs (g, e) of the norm product prod (int g dmu)**e: per occupied
    head slot g = w_i |f_i chi_Q|**p_i and e = 1/p_i and, under a mask Q (a
    leaf mask or a (K, leaves) stack), the pair (chi_Q, pad) for the padded
    head slots and the infinite tail, with pad = 1/p - sum of e.  Each caller
    takes its own sum.  The weights are taken as positive: a WeightSystem's
    are checked when it is made, function_norms_product checks its caller's."""
    with np.errstate(over="ignore"):  # an overflowed factor is inf, and fails its report
        parts = [(w * np.abs(f if mask is None else f * mask) ** p_i, 1.0 / p_i)
                 for (f, w), p_i in zip(_component_slots(space, active, weights, seq), seq.head)]
    if mask is not None:
        parts.append((np.asarray(mask, dtype=float), _pad(seq, parts)))
    return parts


def _pad(seq: ExponentSequence, parts) -> float:
    """The exponent of the pad factor chi_Q of the (g, e) pairs of the occupied
    head slots: 1/p - sum of their e, the masked head padding and tail."""
    return seq.aggregate_reciprocal - math.fsum(e for _, e in parts)


def _norms_product(sums, exponents) -> float:
    """prod s**e in order from 1.0 over the Python float sums s of the leaf
    masses (leaf_probs * g) of _norm_parts' factors and their exponents e,
    each power by _power, the C pow (an array power may differ in the last
    ulp): inf past the float range, and inf * 0 NaN without a warning.  The
    one rule of function_norms_product, _row_norms_products, _testing_parts."""
    return math.prod(map(_power, sums, exponents), start=1.0)


def lp_norm(space: TreeSpace, f: np.ndarray, p: float, weight=None) -> float:
    """(integral of |f|**p against weight * mu)**(1/p), any p > 0."""
    if not p > 0.0:
        raise ValueError(f"exponent {p} must be positive")
    f = np.asarray(f, dtype=float)
    w = _weighted_probs(space, weight)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return float(np.sum(w * np.abs(f) ** p) ** (1.0 / p))


def product_function(space: TreeSpace, fvec: FunctionVector) -> np.ndarray:
    """Pointwise infinite product of the components.

    Off a mask the result is exactly 0 (the tail indicator repeats
    infinitely often); elsewhere it is the product of the active values.
    """
    with np.errstate(over="ignore"):  # an overflowed product is inf, and fails its report
        out = math.prod(fvec.active, start=np.ones(space.n_leaves))
    return out if fvec.mask is None else np.where(fvec.mask, out, 0.0)


def level_product_atoms(
    space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence
) -> np.ndarray:
    """The infinite product prod_i E_n(f_i) at every level, per atom
    (TreeSpace.atom_offsets).

    Unmasked tail components average to exactly 1.  With a mask Q (the
    vector's) and a nonempty tail, level n picks up the factor E_n(chi_Q)
    infinitely often, so it survives only on the atoms contained in Q
    (_full_atoms).  A finite family (tail mass 0) has no infinite tail; the
    mask then also applies to the constant-1 components padding the head,
    each contributing one factor E_n(chi_Q).  A (B, leaves) mask stack gives
    a (B, atoms) stack, one process per mask.  Past the float range a
    product is inf (times a vanishing mask factor, NaN).
    """
    _check_alignment(fvec, seq)
    mask = fvec.mask
    batch = () if mask is None else mask.shape[:-1]
    rows = np.ones(batch + (space.atom_offsets[-1],))
    with np.errstate(over="ignore", invalid="ignore"):
        for f in fvec.active:
            rows *= cond_exp_atoms(space, f if mask is None else f * mask)
        if mask is None:
            return rows
        if not seq.is_finite_family:
            rows *= _full_atoms(space, mask)
        elif fvec.n_active < seq.head_len:
            rows *= cond_exp_atoms(space, mask) ** (seq.head_len - fvec.n_active)
    return rows


def level_products(space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence) -> np.ndarray:
    """level_product_atoms on the leaves: the matrix whose row n is the
    infinite product prod_i E_n(f_i), or under a (B, leaves) mask stack a
    (B, depth+1, leaves) stack of matrices, one per mask."""
    return space.expand_levels(level_product_atoms(space, fvec, seq))


def _full_levels(space: TreeSpace, masks) -> list[np.ndarray]:
    """Per mask F (the last axis, cast to bool), whether each atom lies inside
    F, one array per level from depth up to 0: the full atoms of a level are
    those whose children are all full."""
    r = space.branching
    full = [np.asarray(masks, dtype=bool)]
    for _ in range(space.depth):
        children = full[-1].reshape(full[-1].shape[:-1] + (-1, r))
        parent = children[..., 0]
        for c in range(1, r):
            parent = parent & children[..., c]
        full.append(parent)
    return full


def _full_atoms(space: TreeSpace, masks) -> np.ndarray:
    """_full_levels as a per-atom process: the factor E_n(chi_F)**infinity."""
    return np.concatenate(_full_levels(space, masks)[::-1], axis=-1)


def _entry_levels(space: TreeSpace, masks) -> np.ndarray:
    """Per mask F (the last axis, cast to bool) and leaf x, the shallowest
    level whose atom through x lies inside F, and depth+1 off F.  Going down
    from the root, each leaf counts the levels at which its atom is full
    (_full_levels): its entry level down to depth.  O(leaves) per mask."""
    full = _full_levels(space, masks)
    count = full.pop().view(np.uint8)
    while full:
        count = np.repeat(count, space.branching, axis=-1) + full.pop().view(np.uint8)
    return space.depth + 1 - count.astype(np.intp)


def function_norms_product(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    weights=None,
) -> float:
    """prod_i ||f_i||_{L^{p_i}(w_i)} with exact tail aggregation.

    weights, when given, is a list of positive leaf vectors aligned with
    the exponent head; missing entries (and the tail) weigh by 1.  The
    factors come from _norm_parts: tail components are 1, or chi_Q under a
    mask, so the masked head padding and tail contribute |Q|**pad in closed
    form.
    """
    weights = () if weights is None else weights
    if not all(np.greater(w, 0.0).all() for w in weights):
        raise ValueError("weight must be strictly positive")
    parts = _norm_parts(space, fvec.active, seq, weights, fvec.mask)
    return _norms_product([float((space.leaf_probs * g).sum()) for g, _ in parts],
                          [e for _, e in parts])


def _row_norms_products(space: TreeSpace, active, seq: ExponentSequence, weights, masks,
                        padded) -> list[float]:
    """function_norms_product of each row t of (T, leaves) component stacks
    under a (T, leaves) mask stack, with the pad factor |Q|**pad only where
    padded[t]: an unmasked row carries an all-true mask, under which f * True
    is exact.  Each sum runs along the last axis, bit for bit the 1-D sum,
    and each row's product is _norms_product's."""
    with np.errstate(over="ignore"):  # a norm product past the float range is inf
        parts = _norm_parts(space, active, seq, weights, masks)
        sums = [(space.leaf_probs * g).sum(-1).tolist() for g, _ in parts]
    exponents = [e for _, e in parts]  # the pad exponent last: a row without it stops short
    return [_norms_product(row[:len(row) - (not pad)], exponents)
            for row, pad in zip(zip(*sums), padded)]


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
        metadata={"p": 1.0 / rp, "n_active": fvec.n_active, "space": space.digest},
    )


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _keep_last(build):
    """build cached for its last arguments only, as lru_cache(maxsize=1) caches
    it, except that the kept result is dropped before a call with other
    arguments builds its own, so two results are never held at once; an
    exception keeps nothing: the package's one-entry cache.  cache_info() and
    cache_clear() count and drop as lru_cache's do."""
    kept, counts = [], [0, 0]  # hits, misses

    @functools.wraps(build)
    def cached(*args):
        if kept and kept[0] == args:
            counts[0] += 1
        else:
            counts[1] += 1
            kept.clear()
            kept[:] = [args, build(*args)]
        return kept[1]

    def cache_clear():
        kept.clear()
        counts[:] = [0, 0]

    cached.cache_info = lambda: _CacheInfo(*counts, 1, len(kept) // 2)
    cached.cache_clear = cache_clear
    return cached


def _conditional_parts(space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence):
    """Both sides of holder_conditional_check at every level, per atom
    (TreeSpace.atom_offsets), read-only: E_n((prod f_i)**p)**(1/p), and the
    product of E_n(g)**e over the _norm_parts pairs in their order, starting
    from 1 (1 * x is x).  Each conditional expectation comes from one
    cond_exp_atoms pass over every level and is powered in place (an array
    power does not depend on where an entry sits), one factor at a time; an
    overflowed power is inf."""
    rp = seq.aggregate_reciprocal
    rhs = np.ones(space.atom_offsets[-1])
    with np.errstate(over="ignore"):
        for g, e in _norm_parts(space, fvec.active, seq, mask=fvec.mask):
            factor = cond_exp_atoms(space, g)
            factor **= e
            rhs *= factor
            del factor  # freed before the next one is built
        lhs = cond_exp_atoms(space, product_function(space, fvec) ** (1.0 / rp))
        lhs **= rp
    return _frozen(lhs), _frozen(rhs)


@_keep_last
def _conditional_levels(space: TreeSpace, fvec: FunctionVector, seq: ExponentSequence,
                        tolerance: float) -> list:
    """Per level n, (lhs, rhs, atom) of holder_conditional_check's report for
    the last (space, vector, sequence, tolerance): the verdicts and the gaps
    lhs - _margin(rhs) of every atom in one pass over both sides
    (_conditional_parts), then per level the first failing atom, or the one
    with the largest gap when all pass (one argmin or argmax on its slice).
    A gap is elementwise, so a level's slice is its own gap, bit for bit;
    only the rows are kept, and both per-atom sides are freed on return."""
    lhs, rhs = _conditional_parts(space, fvec, seq)
    ok = _within_margin(lhs, rhs, tolerance)
    with np.errstate(over="ignore", invalid="ignore"):  # a failing level reads no gap
        gap = _margin(rhs, tolerance)
        np.subtract(lhs, gap, out=gap)  # in place: one per-atom array, not two
    passed = np.logical_and.reduceat(ok, space.atom_offsets[:-1]).tolist()
    atoms = [int(np.argmax(space.level(gap, n)) if all_ok else np.argmin(space.level(ok, n)))
             for n, all_ok in enumerate(passed)]
    at = np.add(space.atom_offsets[:-1], atoms)
    return list(zip(lhs[at].tolist(), rhs[at].tolist(), atoms))


def holder_conditional_check(
    space: TreeSpace,
    fvec: FunctionVector,
    seq: ExponentSequence,
    n: int,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """E_n(prod f_i**p)**(1/p) <= prod E_n(f_i**p_i)**(1/p_i) on every
    level-n atom, with both sides per atom.  The report takes its sides, and
    so its verdict, from the first failing atom, or from the worst one when
    all pass, and names it in "atom".  The report rows of every level are
    kept for the last (space, vector, sequence, tolerance)
    (_conditional_levels), so a check of every level builds both sides
    (_conditional_parts) once and each level reads its own row."""
    _check_alignment(fvec, seq)
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    lhs, rhs, at = _conditional_levels(space, fvec, seq, tolerance)[n]
    return check_inequality(
        "holder-conditional",
        lhs,
        rhs,
        tolerance=tolerance,
        metadata={"level": n, "n_atoms": space.n_atoms(n), "atom": at, "space": space.digest},
    )
