"""Weight systems and the three weight conditions.

A WeightSystem pairs finitely many positive weights (tail weights are 1)
with an exponent sequence and a target weight v; the dual densities
sigma_i = omega_i**(-1/(p_i - 1)) are derived at construction.

The reverse-Hoelder and testing constants are suprema over stopping
times, but both ratios depend on a stopping time only through its finite
support {tau < infinity}.  Any nonempty leaf set is such a support (defer
everywhere, send the complement to infinity at the last level), so the
"all" family scans the distinct supports directly; sampled families draw
stopping times uniformly and deduplicate their supports.

Ratios are evaluated in normalized form, as products of (base/reference)
powers whose exponents sum to 1 by the closed-form tail identity.  All
bases coincide with the reference for the all-ones system, every quotient
is then exactly 1.0, and the constants come out exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exponents import ExponentSequence
from .filtration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    TreeSpace,
    _is_union_of_atoms,
    _read_only,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp_matrix,
    sample_stopping_time,
)
from .holder import FunctionVector, level_products
from .maximal import weighted_measure


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """Holds read-only arrays, so it caches the sigma_i's conditional-expectation
    matrices and the joint-condition level matrix and constant."""

    space: TreeSpace
    seq: ExponentSequence
    active_weights: tuple[np.ndarray, ...]
    v: np.ndarray
    sigmas: tuple[np.ndarray, ...]
    assumptions: dict

    @property
    def n_active(self) -> int:
        return len(self.active_weights)

    @cached_property
    def sigma_matrices(self) -> tuple[np.ndarray, ...]:
        """cond_exp_matrix of each sigma_i (read-only)."""
        return tuple(_read_only(cond_exp_matrix(self.space, s)) for s in self.sigmas)

    @cached_property
    def ap_rows(self) -> np.ndarray:
        """ap_level_values of this system (read-only)."""
        return _read_only(ap_level_values(self))

    @cached_property
    def ap_max(self) -> float:
        """ap_constant of this system."""
        return float(self.ap_rows.max())

    def sigma_at(self, i: int) -> np.ndarray:
        """sigma_i for a head index (0-based); 1 beyond the active block."""
        if i < self.n_active:
            return self.sigmas[i]
        return np.ones(self.space.n_leaves)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "seq": self.seq.to_json(),
            "weights": [[float(x) for x in w] for w in self.active_weights],
            "v": [float(x) for x in self.v],
        }


def make_weight_system(
    space: TreeSpace, seq: ExponentSequence, active_weights, v
) -> WeightSystem:
    """Validate positivity and alignment, derive the dual densities, and
    record the standing finiteness assumptions (automatic here: finite
    space, unit tails).  The system keeps read-only copies of the weights,
    v and sigma_i; a sigma_i or its norm that is 0 or inf raises ValueError."""
    weights = []
    for w in active_weights:
        w = as_leaf_vector(space, w)
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        weights.append(_read_only(w))
    if len(weights) > seq.head_len:
        raise ValueError(
            f"{len(weights)} weights exceed exponent head length {seq.head_len}"
        )
    v = as_leaf_vector(space, v)
    if not np.all(v > 0.0):
        raise ValueError("v must be strictly positive")
    sigmas = []
    sigma_norm_prod = 1.0
    min_sigma_prod = 1.0
    for i, w in enumerate(weights):
        p_i = seq.head[i]
        with np.errstate(over="ignore", under="ignore"):
            s = w ** (-1.0 / (p_i - 1.0))
            norm = float(np.sum(space.leaf_probs * w * s**p_i)) ** (1.0 / p_i)
            low = float(np.min(s ** (1.0 / p_i)))
        if not (np.all(np.isfinite(s) & (s > 0.0)) and math.isfinite(norm)):
            raise ValueError(
                f"dual density sigma_{i} for p_{i} = {p_i} or its norm is 0 or inf in "
                "floating point; the weight spread is too extreme for this exponent"
            )
        sigmas.append(_read_only(s))
        sigma_norm_prod *= norm
        min_sigma_prod *= low
    assumptions = {
        "sigma_norm_product": sigma_norm_prod,
        "min_sigma_product": min_sigma_prod,
        "finite": bool(np.isfinite(sigma_norm_prod) and min_sigma_prod > 0.0),
    }
    return WeightSystem(space, seq, tuple(weights), _read_only(v), tuple(sigmas), assumptions)


def weight_system_from_json(obj: dict) -> WeightSystem:
    from .exponents import sequence_from_json
    from .filtration import space_from_json

    space = space_from_json(obj["space"])
    seq = sequence_from_json(obj["seq"])
    return make_weight_system(space, seq, obj.get("weights", []), obj["v"])


def unit_weight_system(
    space: TreeSpace, seq: ExponentSequence, n_active: int = 1
) -> WeightSystem:
    ones = np.ones(space.n_leaves)
    return make_weight_system(space, seq, [ones] * n_active, ones)


def ap_level_values(ws: WeightSystem) -> np.ndarray:
    """Matrix whose row n is E_n(v)**(1/p) * prod E_n(sigma_i)**(1/p'_i),
    leaf-wise.  Tail factors are E_n(1) = 1 and drop out."""
    seq = ws.seq
    rows = cond_exp_matrix(ws.space, ws.v) ** seq.aggregate_reciprocal
    for i, mat in enumerate(ws.sigma_matrices):
        rows = rows * mat ** (1.0 - 1.0 / seq.head[i])
    return rows


def ap_constant(ws: WeightSystem) -> float:
    """Smallest admissible bound in the joint weight condition: the max over
    levels and atoms of ap_level_values, cached on the system (NaN propagates)."""
    return ws.ap_max


def _all_supports(space: TreeSpace, cap: int) -> list[np.ndarray]:
    n = space.n_leaves
    if 2**n - 1 > cap:
        raise EnumerationCapError(
            f"{2 ** n - 1} distinct stopping-time supports exceed the cap {cap}; "
            "use a sampled family"
        )
    bits = np.arange(n)
    return [((m >> bits) & 1).astype(bool) for m in range(1, 2**n)]


def support_family(
    space: TreeSpace, family="all", cap: int = ENUMERATION_CAP
) -> list[np.ndarray]:
    """Distinct nonempty finite-support sets {tau < infinity}.

    family is "all" (every nonempty leaf set; each one is realized by some
    stopping time) or {"count": k, "seed": s} for uniform sampling over
    the stopping-time family with support deduplication.
    """
    if isinstance(family, str):
        if family != "all":
            raise ValueError(f"unknown family spec {family!r}")
        return _all_supports(space, cap)
    rng = np.random.default_rng(family["seed"])
    seen: dict[bytes, np.ndarray] = {}
    for _ in range(int(family["count"])):
        support = sample_stopping_time(space, rng).support()
        if support.any():
            seen.setdefault(support.tobytes(), support)
    return list(seen.values())


def _normalized_ratio(bases, exponents, tail_base, reference, inverse=False) -> float:
    """prod (base/reference)**e * (tail_base/reference)**(1 - sum e).

    Mathematically equals prod base**e * tail_base**e_t / reference since
    the exponents sum to 1; computing through the quotients makes the
    all-equal case collapse to exactly 1.0.  `inverse` flips every
    quotient (reference in the numerator).
    """
    tail_exp = 1.0 - float(np.sum(exponents))
    out = 1.0
    for b, e in zip(bases, exponents):
        q = reference / b if inverse else b / reference
        out *= q**e
    q = reference / tail_base if inverse else tail_base / reference
    return out * q**tail_exp


def _support_parts(ws: WeightSystem, support) -> tuple[np.ndarray, list, list, float]:
    """The support F as a leaf mask, the exponents d_i = (1/p_i) / (1/p), the
    bases |F|_{sigma_i} and the tail base |F| that both support ratios share."""
    space, seq = ws.space, ws.seq
    support = as_leaf_mask(space, support)
    rp = seq.aggregate_reciprocal
    d = [(1.0 / seq.head[i]) / rp for i in range(ws.n_active)]
    bases = [weighted_measure(space, support, s) for s in ws.sigmas]
    return support, d, bases, weighted_measure(space, support)


def rh_support_ratio(ws: WeightSystem, support: np.ndarray) -> float:
    """Reverse-Hoelder ratio of one support F:
    prod (int_F sigma_i)**(p/p_i) / int_F prod sigma_i**(p/p_i)."""
    support, d, bases, tail_base = _support_parts(ws, support)
    integrand = np.ones(ws.space.n_leaves)
    for s, e in zip(ws.sigmas, d):
        integrand = integrand * s**e
    denom = float(np.sum(ws.space.leaf_probs[support] * integrand[support]))
    return _normalized_ratio(bases, d, tail_base, denom)


def sp_support_ratio(ws: WeightSystem, support: np.ndarray) -> float:
    """Testing ratio of one support F:
    (int_F M(sigma chi_F)**p v dmu)**(1/p) / prod |F|_{sigma_i}**(1/p_i)."""
    support, d, bases, tail_base = _support_parts(ws, support)
    space, rp = ws.space, ws.seq.aggregate_reciprocal
    fvec = FunctionVector(ws.sigmas, None)
    maximal = level_products(space, fvec, ws.seq, masked_by=support).max(axis=0)
    numer = float(
        np.sum((space.leaf_probs * ws.v)[support] * maximal[support] ** (1.0 / rp))
    )
    ratio_p = _normalized_ratio(bases, d, tail_base, numer, inverse=True)
    return ratio_p**rp


def _family_max(ws: WeightSystem, family, cap: int, ratio) -> tuple[float, np.ndarray | None]:
    """Largest ratio over the family and a support attaining it; a NaN
    ratio is returned at once, with its support as the witness."""
    best, arg = 0.0, None
    for support in support_family(ws.space, family, cap):
        r = ratio(ws, support)
        if not r <= best:  # larger, or NaN
            best, arg = r, support
            if math.isnan(r):
                break
    return best, arg


def rh_constant(ws: WeightSystem, family="all", cap: int = ENUMERATION_CAP) -> float:
    """Smallest reverse-Hoelder constant over the family: the max of
    rh_support_ratio over the distinct stopping-time supports.  Sampled
    families give a lower bound for the true constant."""
    return _family_max(ws, family, cap, rh_support_ratio)[0]


def sp_constant(ws: WeightSystem, family="all", cap: int = ENUMERATION_CAP) -> float:
    """Smallest testing constant over the family: the max of
    sp_support_ratio over the distinct stopping-time supports.  Sampled
    families give a lower bound for the true constant."""
    return _family_max(ws, family, cap, sp_support_ratio)[0]


def sp_constant_argmax(
    ws: WeightSystem, family="all", cap: int = ENUMERATION_CAP
) -> tuple[float, np.ndarray | None]:
    """sp_constant together with a support achieving it."""
    return _family_max(ws, family, cap, sp_support_ratio)


def necessity_family_ap(ws: WeightSystem, n: int, leaf_set) -> FunctionVector:
    """The extremal test family for recovering the joint weight condition:
    f_i = sigma_i * chi_B with the tail masked by B, for B a union of
    level-n atoms."""
    space = ws.space
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    mask = as_leaf_mask(space, leaf_set)
    if not _is_union_of_atoms(space, mask, n):
        raise ValueError(f"leaf set is not measurable at level {n}")
    return FunctionVector(ws.sigmas, mask)
