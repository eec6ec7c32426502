"""Weight systems and the three weight conditions.

A WeightSystem pairs finitely many positive weights (tail weights are 1)
with an exponent sequence and a target weight v; the dual densities
sigma_i = omega_i**(-1/(p_i - 1)) are derived at construction.

The reverse-Hoelder and testing constants are suprema over stopping
times, but both ratios depend on a stopping time only through its finite
support {tau < infinity}.  Any nonempty leaf set is such a support (defer
everywhere, send the complement to infinity at the last level), so the
"all" family scans the distinct supports directly, decoded from the
bitmasks 1 .. 2**leaves - 1 in order; a sampled family {"count": k,
"seed": s} draws k stopping times uniformly and keeps their distinct
nonempty supports.  Those depend only on the tree shape, k and s, so they
are drawn once per (depth, branching, k, s) and kept, read-only, in a
cache of the last 8 families that every scan of that family shares,
whatever the leaf masses.  rh_ratios and sp_ratios take (B, leaves) chunks
of supports, B * width at most SCAN_CHUNK_FLOATS for the kernel's width in
floats per support (_sp_scan): a scan never holds more than a chunk of a
family that it streams.  A family of K supports that fits one chunk (K *
leaves at most SCAN_CHUNK_FLOATS) is kept whole instead, as one
_SupportTable per shape and family: its masks, and the entry index of
the testing table that the first infinite-tail scan builds.  Its support
masses |F|_{sigma_i} and |F| are summed once for the last (system, table)
pair, which the testing and the reverse-Hoelder scans both read; a kept
family is scanned in the chunks a streamed one takes, so no value moves.
The "all" testing scan and its witness are cached on the WeightSystem,
which the strong-type estimate reads again after sp_constant.  Every scan
starts in _kept_table, which checks ENUMERATION_CAP for "all" and the
sampled count (an integer >= 1) and seed before any chunk.

The system also caches the density product R = prod_i E_n(sigma_i) per
atom of every level, and the testing table built from it.  With an
infinite exponent tail the masked level product on a support F is R_n on
the level-n atoms inside F and 0 elsewhere, so sp_ratios reads each
leaf's value from the table at the shallowest level whose atom through it
lies in F: O(leaves) per support, and no level block.  A finite family has no such tail, and
its testing scan keeps the masked level products.

Ratios are evaluated in normalized form, as products of (base/reference)
powers whose exponents sum to 1 by the closed-form tail identity.  All
bases coincide with the reference for the all-ones system, every quotient
is then exactly 1.0, and the constants come out exactly 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .exponents import ExponentSequence
from .filtration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    StoppingTime,
    TreeSpace,
    _about,
    _adapted_scan,
    _as_leaf_masks,
    _frozen,
    _level_masses,
    _quotient_atoms,
    _read_only,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp_atoms,
    make_tree_space,
    sample_stopping_time,
)
from .holder import FunctionVector, _entry_levels, level_product_atoms

SCAN_CHUNK_FLOATS = 1 << 16  # B * width per chunk of a scan (_support_chunks)


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """Holds read-only arrays, so it caches the sigma_i's leaf and atom masses
    and per-atom conditional expectations and their product, the testing table,
    the joint-condition level values and constant, and the "all"-family
    testing scan with its witness."""

    space: TreeSpace
    seq: ExponentSequence
    active_weights: tuple[np.ndarray, ...]
    v: np.ndarray
    sigmas: tuple[np.ndarray, ...]

    @property
    def n_active(self) -> int:
        return len(self.active_weights)

    @cached_property
    def sigma_atoms(self) -> tuple[np.ndarray, ...]:
        """cond_exp_atoms of each sigma_i (read-only), bit for bit: level n is
        the sigma_i-masses of the level-n atoms over their masses."""
        space = self.space
        return tuple(_frozen(_quotient_atoms(space, masses, space.atom_masses, s))
                     for masses, s in zip(self.sigma_masses, self.sigmas))

    @cached_property
    def sigma_probs(self) -> tuple[np.ndarray, ...]:
        """leaf_probs * sigma_i for each sigma_i (read-only): the sigma_i-masses
        of the leaves.  make_weight_system has checked each sigma_i."""
        return tuple(_frozen(self.space.leaf_probs * s) for s in self.sigmas)

    @cached_property
    def sigma_masses(self) -> tuple[np.ndarray, ...]:
        """Per sigma_i, the sigma_i-masses of the atoms of every level below
        depth (_level_masses, read-only): the numerators of sigma_atoms and
        the denominators of E_n^{sigma_i} (maximal._weighted_rows)."""
        return tuple(_frozen(_level_masses(self.space, probs)) for probs in self.sigma_probs)

    @cached_property
    def density_atoms(self) -> np.ndarray:
        """R = prod_i sigma_atoms[i], the density product at every level, per
        atom (read-only); all ones with no weights.  A product past the float
        range is inf, which fails the report it reaches."""
        rows = np.ones(self.space.atom_offsets[-1])
        with np.errstate(over="ignore"):
            for atoms in self.sigma_atoms:
                rows *= atoms
        return _frozen(rows)

    @cached_property
    def testing_table(self) -> np.ndarray:
        """T (read-only): row n is leaf_probs * v * (max_{m>=n} R_m)**p, and
        one zero row below the levels, which entry level depth+1 (off F) reads.
        The tail maximum of a leaf is not constant on atoms, so T is per leaf."""
        space, p = self.space, 1.0 / self.seq.aggregate_reciprocal
        table = np.zeros((space.depth + 2, space.n_leaves))
        tail_max = space.expand_levels(self.density_atoms)
        for n in range(space.depth - 1, -1, -1):
            np.maximum(tail_max[n], tail_max[n + 1], out=tail_max[n])
        with np.errstate(over="ignore"):
            table[:-1] = space.leaf_probs * self.v * tail_max**p
        return _frozen(table)

    @cached_property
    def ap_atoms(self) -> np.ndarray:
        """ap_level_values of this system (read-only)."""
        return _frozen(ap_level_values(self))

    @cached_property
    def ap_max(self) -> float:
        """ap_constant of this system."""
        return float(self.ap_atoms.max())

    @cached_property
    def sp_scan(self) -> tuple[float, np.ndarray | None]:
        """The "all"-family testing constant and its witness (read-only).  A
        family past ENUMERATION_CAP raises EnumerationCapError on every read."""
        return _sp_scan(self, "all")

    def sigma_at(self, i: int) -> np.ndarray:
        """sigma_i for a head index (0-based); 1 beyond the active block."""
        if i < self.n_active:
            return self.sigmas[i]
        return np.ones(self.space.n_leaves)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "seq": self.seq.to_json(),
            "weights": [w.tolist() for w in self.active_weights],
            "v": self.v.tolist(),
        }


def make_weight_system(
    space: TreeSpace, seq: ExponentSequence, active_weights, v
) -> WeightSystem:
    """Validate positivity and alignment and derive the dual densities.  The
    system keeps read-only copies of the weights, v and sigma_i; a sigma_i
    or its norm that is 0 or inf raises ValueError."""
    weights = []
    for w in active_weights:
        w = as_leaf_vector(space, w)
        if not (w > 0.0).all():
            raise ValueError("weights must be strictly positive")
        weights.append(_read_only(w))
    if len(weights) > seq.head_len:
        raise ValueError(
            f"{len(weights)} weights exceed exponent head length {seq.head_len}"
        )
    v = as_leaf_vector(space, v)
    if not (v > 0.0).all():
        raise ValueError("v must be strictly positive")
    sigmas = []
    for i, w in enumerate(weights):
        p_i = seq.head[i]
        with np.errstate(over="ignore", under="ignore"):
            s = w ** (-1.0 / (p_i - 1.0))
            norm = float(np.sum(space.leaf_probs * w * s**p_i)) ** (1.0 / p_i)
        if not ((np.isfinite(s) & (s > 0.0)).all() and math.isfinite(norm)):
            raise ValueError(
                f"dual density sigma_{i} for p_{i} = {p_i} or its norm is 0 or inf in "
                "floating point; the weight spread is too extreme for this exponent"
            )
        sigmas.append(_read_only(s))
    return WeightSystem(space, seq, tuple(weights), _read_only(v), tuple(sigmas))


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
    """E_n(v)**(1/p) * prod E_n(sigma_i)**(1/p'_i) at every level, per atom
    (TreeSpace.atom_offsets).  Tail factors are E_n(1) = 1 and drop out."""
    seq = ws.seq
    with np.errstate(over="ignore"):  # an overflowed entry is inf, and fails its report
        rows = cond_exp_atoms(ws.space, ws.v)
        rows **= seq.aggregate_reciprocal  # in place: the same powers, one leaf process less
        for i, atoms in enumerate(ws.sigma_atoms):
            rows *= atoms ** (1.0 - 1.0 / seq.head[i])
    return rows


def ap_constant(ws: WeightSystem) -> float:
    """Smallest admissible bound in the joint weight condition: the max over
    levels and atoms of ap_level_values, cached on the system (NaN propagates)."""
    return ws.ap_max


def _support_chunks(space: TreeSpace, family, width: int | None = None) -> Iterator[np.ndarray]:
    """The family as (B, leaves) bool chunks with B * width at most
    SCAN_CHUNK_FLOATS, width the kernel's floats per support (leaves by
    default): "all" gives the bitmasks 1 .. 2**leaves - 1 in order, a
    sampled family its distinct supports in the order first drawn; a kept
    family's chunks are slices of its table (_kept_table).  ENUMERATION_CAP
    and the family spec are checked at the call, before any chunk: every
    scan of a family starts here or in _kept_table."""
    rows = _chunk_rows(space, width)
    table = _kept_table(space, family)
    if table is not None:
        masks = table.masks
    elif family == "all":
        return (_decoded(space.n_leaves, lo, min(lo + rows, 2**space.n_leaves))
                for lo in range(1, 2**space.n_leaves, rows))
    else:
        masks = _sampled_supports(space, family)
    return (masks[lo : lo + rows] for lo in range(0, len(masks), rows))


def _chunk_rows(space: TreeSpace, width: int | None) -> int:
    """Supports per chunk: B with B * width at most SCAN_CHUNK_FLOATS, B >= 1."""
    return max(1, SCAN_CHUNK_FLOATS // (width or space.n_leaves))


def _decoded(leaves: int, lo: int, hi: int) -> np.ndarray:
    """The leaf sets of the bitmasks lo .. hi - 1, one (leaves,) bool row each."""
    return ((np.arange(lo, hi)[:, None] >> np.arange(leaves)) & 1).astype(bool)


def _sampled_key(family) -> tuple:
    """(count, seed) of a sampled family after its checks.  The seed is an
    integer or a list (tuple, array) of integers, keyed as the tuple that
    default_rng reads as the same stream; None, a Generator or a
    BitGenerator (each a fresh stream), a float, a string or a bool raises
    ValueError.  The count must be an integer >= 1 (an integral float such
    as 2.0 is one, a bool is not), else ValueError."""
    count, seed = family["count"], family["seed"]
    if isinstance(count, bool) or not (isinstance(count, numbers.Real) and count >= 1
                                       and count % 1 == 0):  # NaN and inf fail
        raise ValueError(f"a sampled family's count must be an integer >= 1, not {count!r}")
    listed = isinstance(seed, (list, tuple, np.ndarray))
    # the elements as given: np.ravel would turn [0, True] into the ints [0, 1]
    elements = np.asarray(seed, dtype=object).ravel().tolist() if listed else [seed]
    if not all(isinstance(e, numbers.Integral) and not isinstance(e, bool) for e in elements):
        raise ValueError(f"a sampled family's seed must be an integer or a list of integers, "
                         f"not {seed!r}")
    return int(count), tuple(map(int, elements)) if listed else seed


def _sampled_supports(space: TreeSpace, family) -> np.ndarray:
    """The distinct nonempty supports of a sampled family, in the order first
    drawn, as a read-only (K, leaves) bool array, drawn once per seed after
    the checks of _sampled_key."""
    return _drawn_supports(space.depth, space.branching, *_sampled_key(family))


@lru_cache(maxsize=8)
def _drawn_supports(depth: int, branching: int, count: int, seed) -> np.ndarray:
    """Draw count uniform stopping times from default_rng(seed) on the tree
    shape and keep their distinct nonempty supports in first-drawn order.
    An exception (the sampler's OverflowError from binary depth 10) is not
    cached and is raised again on every call."""
    space = make_tree_space(depth, branching)  # the sampler reads only the shape
    rng = np.random.default_rng(seed)
    drawn = (sample_stopping_time(space, rng).finite for _ in range(count))
    distinct = list({f.tobytes(): f for f in drawn if f.any()}.values())
    return _frozen(np.stack(distinct) if distinct else np.zeros((0, space.n_leaves), bool))


@dataclass(frozen=True, eq=False)
class _SupportTable:
    """A support family of one tree shape that fits one scan chunk, kept
    read-only: its (K, leaves) masks in scan order and, built on the first
    infinite-tail testing scan, where each support's leaves read the testing
    table.  Hashes by identity, so it keys the support masses of a system."""

    depth: int
    branching: int
    masks: np.ndarray

    @cached_property
    def entry_index(self) -> np.ndarray:
        """_entry_index of the masks (read-only)."""
        return _frozen(_entry_index(make_tree_space(self.depth, self.branching), self.masks))


def _kept_table(space: TreeSpace, family) -> _SupportTable | None:
    """The kept table of a family whose K supports fit one chunk (K * leaves
    at most SCAN_CHUNK_FLOATS: "all" up to 12 leaves, a sampled family of K
    distinct supports up to 65,536 / K leaves), else None: a larger family
    streams.  Checks ENUMERATION_CAP for "all" and the sampled count and
    seed on every call, and an OverflowError of the sampler is not kept."""
    if family == "all":
        size, key = 2**space.n_leaves - 1, "all"
        if size > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"{_about(size)} distinct stopping-time supports exceed the cap "
                f"{ENUMERATION_CAP}; use a sampled family"
            )
    elif isinstance(family, str):
        raise ValueError(f"unknown family spec {family!r}")
    else:
        key = _sampled_key(family)
        size = len(_drawn_supports(space.depth, space.branching, *key))
    if size * space.n_leaves > SCAN_CHUNK_FLOATS:
        return None
    return _support_table(space.depth, space.branching, key)


@lru_cache(maxsize=8)
def _support_table(depth: int, branching: int, key) -> _SupportTable:
    """The table of one shape and family key: "all" or a sampled (count, seed),
    whose masks are the drawn supports themselves."""
    if key == "all":
        masks = _frozen(_decoded(branching**depth, 1, 2 ** (branching**depth)))
    else:
        masks = _drawn_supports(depth, branching, *key)
    return _SupportTable(depth, branching, masks)


def support_family(space: TreeSpace, family="all") -> np.ndarray:
    """Distinct nonempty finite-support sets {tau < infinity}, one per row.

    family is "all" (every nonempty leaf set in bitmask order; each one is
    realized by some stopping time) or {"count": k, "seed": s} for uniform
    sampling over the stopping-time family with support deduplication; k
    is an integer >= 1.  "all" past ENUMERATION_CAP supports (from 24
    leaves) raises EnumerationCapError at the call, as every scan does.
    """
    return np.concatenate([np.zeros((0, space.n_leaves), bool),
                           *_support_chunks(space, family)])


def _base_exponents(ws: WeightSystem) -> list[float]:
    """d_i = (1/p_i) / (1/p) for the active head slots."""
    return [(1.0 / ws.seq.head[i]) / ws.seq.aggregate_reciprocal for i in range(ws.n_active)]


def _support_masses(ws: WeightSystem, masks: np.ndarray) -> np.ndarray:
    """The bases of the ratios per row F of masks: |F|_{sigma_i} for each
    sigma_i, then |F|, as the rows of an (n_active + 1, B) array.  Each is a
    sum along the last axis, so a row's value does not depend on its chunk."""
    return np.array([(masks * probs).sum(axis=-1)
                     for probs in (*ws.sigma_probs, ws.space.leaf_probs)])


@lru_cache(maxsize=1)
def _kept_masses(ws: WeightSystem, table: _SupportTable) -> np.ndarray:
    """_support_masses of a kept table for the last (system, table) pair (both
    hash by identity), read-only: rh_constant and sp_constant of one system
    sum them once."""
    return _frozen(_support_masses(ws, table.masks))


def _entry_index(space: TreeSpace, masks: np.ndarray) -> np.ndarray:
    """Per support and leaf, the leaf's index in the flattened testing table
    at its entry level (_entry_levels): entry level * leaves + leaf."""
    return _entry_levels(space, masks) * space.n_leaves + space.leaf_index


def _normalized_ratios(ws: WeightSystem, masses, reference, inverse=False):
    """prod (|F|_{sigma_i}/reference)**d_i * (|F|/reference)**(1 - sum d_i) per
    support F, the bases the rows of masses (_support_masses): as the
    exponents sum to 1 this is prod |F|_{sigma_i}**d_i * |F|**(1 - sum d_i) /
    reference, and the all-equal case is exactly 1.0.  `inverse` flips every
    quotient."""
    d = _base_exponents(ws)
    out = np.ones(len(reference))
    for base, e in zip(masses, [*d, 1.0 - float(np.sum(d))]):
        out *= (reference / base if inverse else base / reference) ** e
    return out


def _rh_rows(ws: WeightSystem, masks: np.ndarray, masses, at=None) -> np.ndarray:
    """rh_ratios of a bool mask stack with its _support_masses (`at`, which
    only the testing kernel reads, is ignored)."""
    integrand = np.prod([s**e for s, e in zip(ws.sigmas, _base_exponents(ws))], axis=0)
    return _normalized_ratios(ws, masses, (masks * (ws.space.leaf_probs * integrand)).sum(-1))


def _sp_rows(ws: WeightSystem, masks: np.ndarray, masses, at=None) -> np.ndarray:
    """sp_ratios of a bool mask stack with its _support_masses and, for an
    infinite tail, its _entry_index `at`."""
    space, rp = ws.space, ws.seq.aggregate_reciprocal
    if ws.seq.is_finite_family:
        atoms = level_product_atoms(space, FunctionVector(ws.sigmas, masks), ws.seq)
        numer = (masks * (space.leaf_probs * ws.v * space.level_sup(atoms) ** (1.0 / rp))).sum(-1)
    else:
        numer = ws.testing_table.ravel()[at].sum(-1)  # T[entry level, leaf]
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        return _normalized_ratios(ws, masses, numer, inverse=True) ** rp


def rh_ratios(ws: WeightSystem, masks) -> np.ndarray:
    """Reverse-Hoelder ratio of each support F in a (B, leaves) stack:
    prod (int_F sigma_i)**(p/p_i) / int_F prod sigma_i**(p/p_i)."""
    masks = _as_leaf_masks(ws.space, masks)
    return _rh_rows(ws, masks, _support_masses(ws, masks))


def sp_ratios(ws: WeightSystem, masks) -> np.ndarray:
    """Testing ratio of each support F in a (B, leaves) stack:
    (int_F M(sigma chi_F)**p v dmu)**(1/p) / prod |F|_{sigma_i}**(1/p_i).
    With an infinite tail the masked level product is R_n on the level-n
    atoms inside F and 0 elsewhere, so the numerator gathers the testing
    table at each leaf's entry level; on such an atom E_n(sigma_i chi_F)
    sums the same floats as E_n(sigma_i), so the ratios are those of the
    masked level products, bit for bit.  A finite family keeps the masked
    level products: there the padded head slots weigh in the atoms that F
    covers in part."""
    masks = _as_leaf_masks(ws.space, masks)
    at = None if ws.seq.is_finite_family else _entry_index(ws.space, masks)
    return _sp_rows(ws, masks, _support_masses(ws, masks), at)


def _sp_scan(ws: WeightSystem, family) -> tuple[float, np.ndarray | None]:
    """_family_max of sp_ratios over the family.  Chunks are (B, leaves)
    blocks for an infinite tail; a finite family holds several per-atom
    blocks (level products, a factor and level_sup's rows, up to 2 * leaves
    floats per support each), which the width (depth+1) * leaves keeps within
    a few budgets (a width of leaves reaches 7)."""
    space, finite = ws.space, ws.seq.is_finite_family
    return _family_max(ws, family, _sp_rows, (space.depth + 1) * space.n_leaves if finite else None,
                       entry=not finite)


def rh_support_ratio(ws: WeightSystem, support) -> float:
    """rh_ratios of the one support F."""
    return float(rh_ratios(ws, as_leaf_mask(ws.space, support)[None])[0])


def sp_support_ratio(ws: WeightSystem, support) -> float:
    """sp_ratios of the one support F."""
    return float(sp_ratios(ws, as_leaf_mask(ws.space, support)[None])[0])


def _family_max(ws: WeightSystem, family, kernel, width: int | None = None,
                entry: bool = False) -> tuple[float, np.ndarray | None]:
    """Largest kernel ratio over the family's chunks (_support_chunks at the
    width) and the first support in scan order attaining it (read-only);
    the first NaN is returned at once, with its support as the witness, and
    no later chunk is evaluated.  The kernel takes each chunk with its
    support masses and, where `entry`, its entry index: a kept family's are
    slices of the kept masses and of its table, a streamed one's are taken
    per chunk."""
    space = ws.space
    table = _kept_table(space, family)
    if table is None:
        chunks = ((m, _support_masses(ws, m), _entry_index(space, m) if entry else None)
                  for m in _support_chunks(space, family, width))
    else:
        rows, masses = _chunk_rows(space, width), _kept_masses(ws, table)
        at = table.entry_index if entry else None
        chunks = ((table.masks[lo : lo + rows], masses[:, lo : lo + rows],
                   None if at is None else at[lo : lo + rows])
                  for lo in range(0, len(table.masks), rows))
    best, arg = 0.0, None
    for masks, *parts in chunks:
        r = kernel(ws, masks, *parts)
        i = int(r.argmax())  # the first NaN, else the first maximum
        if not r[i] <= best:  # larger, or NaN
            best, arg = float(r[i]), _read_only(masks[i])
            if math.isnan(best):
                break
    return best, arg


def rh_constant(ws: WeightSystem, family="all") -> float:
    """Smallest reverse-Hoelder constant over the family: the max of
    rh_support_ratio over the distinct stopping-time supports of
    support_family (and its checks).  Sampled families give a lower bound
    for the true constant."""
    return _family_max(ws, family, _rh_rows)[0]


def sp_constant(ws: WeightSystem, family="all") -> float:
    """Smallest testing constant over the family: the max of
    sp_support_ratio over the distinct stopping-time supports of
    support_family (and its checks).  Sampled families give a lower bound
    for the true constant."""
    return sp_constant_argmax(ws, family)[0]


def sp_constant_argmax(ws: WeightSystem, family="all") -> tuple[float, np.ndarray | None]:
    """sp_constant together with the first support in scan order achieving it;
    "all" reads the scan cached on the system (WeightSystem.sp_scan), which
    checks ENUMERATION_CAP on every read until a scan is kept."""
    if family == "all":
        return ws.sp_scan
    return _sp_scan(ws, family)


def necessity_family_ap(ws: WeightSystem, n: int, leaf_set) -> FunctionVector:
    """The extremal test family for recovering the joint weight condition:
    f_i = sigma_i * chi_B with the tail masked by B, for B a union of
    level-n atoms.  A public constructor; verify_testing_to_ap evaluates this
    family in closed form, and the tests rebuild that form from it as oracle."""
    space = ws.space
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    mask = as_leaf_mask(space, leaf_set)
    if not _adapted_scan(space, np.where(mask, n, StoppingTime.INFINITE)):  # B is in F_n
        raise ValueError(f"leaf set is not measurable at level {n}")
    return FunctionVector(ws.sigmas, mask)
