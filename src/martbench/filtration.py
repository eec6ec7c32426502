"""Finite filtered probability spaces modeled as uniform r-adic trees.

A TreeSpace of depth N and branching r carries r**N leaves with positive
probabilities.  Level n partitions the leaves into r**n consecutive blocks
(the atoms of the n-th sigma-field); level N is the full power set.
Conditional expectations are atom averages, stopping times are leaf-wise
level assignments whose level sets respect the atom structure, and the
value infinity is the integer sentinel StoppingTime.INFINITE, never a
float.  A process adapted to the filtration is stored per atom: one flat
array of every level's atom values (TreeSpace.atom_offsets), expanded to
a (depth+1, leaves) leaf matrix only where a reader needs leaves.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

MAX_LEAVES = 1 << 20
ENUMERATION_CAP = 10_000_000
# _leaf_runs stacks at most this many leaf entries per pass (and at least one
# row): at 2^20 leaves one int64 row of 8 MB, not every mask and time at once
_RUN_CHUNK_ENTRIES = 1 << 20
# families of at most this many stopping times are built once per tree shape
# and kept (every shape up to 11 leaves); larger ones are streamed
KEPT_FAMILY_TIMES = 4096
KEPT_SHAPES = 16  # tree shapes whose tables a process keeps (_tree_shape)
# _run_sums adds runs of fewer than 8 floats as strided slices from this many
# runs on: np.add.reduce pays about 11 ns per run (23.9 us for 2,048 runs of
# 2), a slice add under 1 us plus under 1 ns per run; at 128 runs the reduce
# took 1.5, 1.2 and 1.1 times the slices' time for runs of 2, 3 and 4, and
# below 64 runs it is faster
_SLICED_RUNS = 128


class EnumerationCapError(RuntimeError):
    """The stopping-time family is too large to enumerate; sample instead."""


def _about(count: int) -> str:
    """A count of any size as "about 10^k", k = floor(log10(count)), for the
    cap messages: math.log10 reads a large int without converting it to a
    string, which Python refuses past 4,300 digits."""
    return f"about 10^{math.floor(math.log10(count))}"


def _shown(n: int) -> str:
    """An integer of any size for a message: its digits, or past the
    interpreter's limit on converting an int to a string, _about's form (a
    negative one in parentheses after its sign)."""
    try:
        return str(n)
    except ValueError:
        return _about(n) if n > 0 else f"-({_about(-n)})"


def _frozen(a: np.ndarray) -> np.ndarray:
    """A fresh array that nothing else holds, marked read-only in place, so
    that _read_only keeps it without a copy."""
    a.setflags(write=False)
    return a


def _read_only(a) -> np.ndarray:
    """`a` if the array owning its data (it, or the base of a view) is
    read-only, as a row of a _frozen stack is, else a read-only copy."""
    a = np.asarray(a)
    owner = a if a.base is None else a.base  # numpy collapses a view's base to the owner
    if not isinstance(owner, np.ndarray) or owner.base is not None or owner.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TreeSpace:
    depth: int
    branching: int
    leaf_probs: np.ndarray  # read-only

    @cached_property
    def atom_masses(self) -> np.ndarray:
        """Atom probabilities at levels 0..depth-1, the denominators of E_n, as
        one read-only flat array (_level_masses): level n is level(atom_masses, n)."""
        return _frozen(_level_masses(self, self.leaf_probs))

    @property
    def shape(self) -> TreeShape:
        """The kept tables of the space's tree shape."""
        return _tree_shape(self.depth, self.branching)

    @property
    def shared_level(self) -> np.ndarray:
        return self.shape.shared_level

    @cached_property
    def atom_offsets(self) -> tuple[int, ...]:  # the shape's, held for the hot level reads
        return self.shape.atom_offsets

    @cached_property
    def leaf_index(self) -> np.ndarray:
        return self.shape.leaf_index

    @property
    def n_leaves(self) -> int:
        return self.branching**self.depth

    @property
    def levels(self) -> range:
        return range(self.depth + 1)

    def n_atoms(self, n: int) -> int:
        return self.branching**n

    def atom_size(self, n: int) -> int:
        return self.branching ** (self.depth - n)

    def atom_slice(self, n: int, j: int) -> slice:
        size = self.atom_size(n)
        return slice(j * size, (j + 1) * size)

    def atom_sums(self, x: np.ndarray, n: int) -> np.ndarray:
        """Per-atom sums at level n of a leaf vector (or of each row of a stack)."""
        return _run_sums(x, self.atom_size(n))

    def expand(self, atom_values: np.ndarray, n: int) -> np.ndarray:
        """Broadcast per-atom values at level n back to leaves (along the last axis)."""
        return np.repeat(atom_values, self.atom_size(n), axis=-1)

    def level(self, atoms: np.ndarray, n: int) -> np.ndarray:
        """The level-n atom values of a per-atom process (a view)."""
        return atoms[..., self.atom_offsets[n]:self.atom_offsets[n + 1]]

    def expand_levels(self, atoms: np.ndarray) -> np.ndarray:
        """A per-atom process (or a stack of them) as a fresh leaf matrix, or a
        (..., depth+1, leaves) stack: row n holds each level-n atom's value on
        its leaves.  One repeat: each atom's value once per leaf it holds, the
        levels one after the other, is that matrix row by row."""
        return atoms.repeat(self.shape.atom_leaves, axis=-1).reshape(
            atoms.shape[:-1] + (self.depth + 1, self.n_leaves))

    def level_sup(self, atoms: np.ndarray) -> np.ndarray:
        """The supremum over levels of a per-atom process (or of each in a stack),
        a fresh value per leaf, bit for bit expand_levels(atoms).max(axis=-2): from the
        root down each atom keeps np.maximum(parent's value, own), the reduction's order."""
        sup = self.level(atoms, 0).copy()
        for n in range(1, self.depth + 1):
            sup = np.maximum(sup.repeat(self.branching, axis=-1), self.level(atoms, n))
        return sup

    def first_passages(self, atoms: np.ndarray, thresholds) -> np.ndarray:
        """The first passage of a per-atom process above each of T thresholds,
        as a fresh (T, leaves) int64 matrix: row t holds each leaf's least level
        n with X_n > thresholds[t], or StoppingTime.INFINITE.  One pass from
        the root down: each atom inherits its parent's passage, and one whose
        parent has not passed passes at its own level where its value exceeds
        the threshold."""
        t = np.asarray(thresholds, dtype=float)[:, None]
        tau = np.where(self.level(atoms, 0) > t, 0, StoppingTime.INFINITE).astype(np.int64)
        for n in range(1, self.depth + 1):
            tau = tau.repeat(self.branching, axis=-1)
            tau[(tau == StoppingTime.INFINITE) & (self.level(atoms, n) > t)] = n
        return tau

    def atom_index(self, levels: np.ndarray, leaves: np.ndarray | None = None) -> np.ndarray:
        """Per leaf x (the last axis, or the entries of `leaves` with `levels`
        alongside), where a per-atom process holds the level-levels[x] atom
        that contains x: atom_offsets[n] + x // atom_size(n)."""
        offsets, sizes = self.shape.level_starts
        leaves = self.leaf_index if leaves is None else leaves
        return offsets[levels] + leaves // sizes[levels]

    @cached_property
    def digest(self) -> str:
        """Short sha256 of the shape and leaf probabilities, hashed once."""
        h = hashlib.sha256()
        h.update(f"{self.depth},{self.branching};".encode())
        h.update(self.leaf_probs.tobytes())
        return h.hexdigest()[:12]

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "branching": self.branching,
            "leaf_probs": self.leaf_probs.tolist(),
        }


def _run_sums(x: np.ndarray, size: int, out=None) -> np.ndarray:
    """The sums of consecutive runs of `size` entries along the last axis (into
    out, if given), bit for bit np.add.reduce(x.reshape(..., -1, size), axis=-1).
    numpy adds a run of fewer than 8 floats left to right from +0.0, so from
    _SLICED_RUNS runs on such runs are added as `size` strided slices in that
    order, with no inner-loop call per run; any other input (longer runs, few
    runs, a bool mask) takes np.add.reduce itself."""
    runs = x.reshape(x.shape[:-1] + (-1, size))
    if size >= 8 or x.size < _SLICED_RUNS * size or x.dtype != np.float64:
        return np.add.reduce(runs, axis=-1, out=out)
    out = np.add(runs[..., 0], 0.0, out=out)
    for j in range(1, size):
        out += runs[..., j]
    return out


@dataclass(frozen=True, eq=False)
class TreeShape:
    """The tables of one tree shape, which every space of that shape reads,
    each built on first use and kept with the shape (_tree_shape)."""

    depth: int
    branching: int

    @cached_property
    def space(self) -> TreeSpace:
        """The uniform space, read-only: its atom masses and digest are built
        once per shape, and a cache keyed on its identity stays exact."""
        n = self.branching**self.depth
        return TreeSpace(self.depth, self.branching, _frozen(np.full(n, 1.0 / n)))

    @cached_property
    def atom_offsets(self) -> tuple[int, ...]:
        """Where each level starts in a per-atom process: one flat array (the
        last axis) holding the r**n level-n atom values at offsets n to n+1,
        levels in order, so the leaves (level depth) come last and the last
        offset is the length."""
        return tuple(itertools.accumulate(
            (self.branching**n for n in range(self.depth + 1)), initial=0))

    @cached_property
    def leaf_index(self) -> np.ndarray:
        """arange(leaves), read-only: the column index of a per-leaf gather."""
        return _frozen(np.arange(self.branching**self.depth))

    @cached_property
    def level_starts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per level, its atom_offsets entry and atom size (read-only): atom_index's."""
        sizes = self.branching ** (self.depth - np.arange(self.depth + 1))
        return _frozen(np.array(self.atom_offsets[:-1])), _frozen(sizes)

    @cached_property
    def atom_leaves(self) -> np.ndarray:
        """Per atom, the leaves it holds (read-only): expand_levels' repeats."""
        return _frozen(np.repeat(self.level_starts[1], np.diff(self.atom_offsets)))

    @cached_property
    def atom_levels(self) -> np.ndarray:
        """Per atom, its level (read-only uint8)."""
        return _frozen(np.repeat(np.arange(self.depth + 1, dtype=np.uint8),
                                 np.diff(self.atom_offsets)))

    @cached_property
    def shared_level(self) -> np.ndarray:
        """Per pair of neighbouring leaves x, x + 1, the deepest level whose atom
        holds both (read-only, unsigned for _adapted_scan): depth - 1, less one
        for each atom size r**1 .. r**(depth-1) that divides x + 1, taken off
        every size-th pair by one strided slice per size (depth 0 has no pairs)."""
        depth, branching = self.depth, self.branching
        shared = np.full(branching**depth - 1, max(depth - 1, 0), dtype=np.uint64)
        for size in (branching**k for k in range(1, depth)):
            shared[size - 1::size] -= 1
        return _frozen(shared)

    @cached_property
    def kept_family(self) -> _KeptFamily | None:
        """The whole stopping-time family, or None past KEPT_FAMILY_TIMES times."""
        if count_stopping_times(self.space) > KEPT_FAMILY_TIMES:
            return None
        return _KeptFamily(tuple(_stream_times(self.space)))


@lru_cache(maxsize=KEPT_SHAPES)
def _tree_shape(depth: int, branching: int) -> TreeShape:
    """The shape of checked (depth, branching): evicted, it goes with its tables."""
    return TreeShape(depth, branching)


def make_tree_space(
    depth: int, branching: int, leaf_probs: Sequence[float] | str = "uniform"
) -> TreeSpace:
    """Validate and build a TreeSpace.  "uniform" gives equal leaf masses and
    the kept space of the shape (TreeShape.space), checked first on every
    call; explicit probabilities give a fresh space."""
    for name, value in (("depth", depth), ("branching", branching)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer")
    depth, branching = int(depth), int(branching)
    if depth < 0:
        raise ValueError(f"depth {_shown(depth)} must be >= 0")
    if branching < 2:
        raise ValueError(f"branching {_shown(branching)} must be >= 2")
    # deeper than log2(MAX_LEAVES) every tree is past the guard; 3**(10**8) takes minutes
    if depth >= MAX_LEAVES.bit_length() or branching**depth > MAX_LEAVES:
        raise ValueError(f"a tree of depth {_shown(depth)} and branching {_shown(branching)} "
                         f"exceeds the {MAX_LEAVES} leaf guard")
    n = branching**depth
    if isinstance(leaf_probs, str):
        if leaf_probs != "uniform":
            raise ValueError(f"unknown leaf_probs spec {leaf_probs!r}")
        return _tree_shape(depth, branching).space
    probs = np.asarray(leaf_probs, dtype=float)
    if probs.shape != (n,):
        raise ValueError(f"expected {n} leaf probabilities, got {probs.shape}")
    if not (probs > 0.0).all():
        raise ValueError("leaf probabilities must be positive")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"leaf probabilities sum to {total}, expected 1")
    return TreeSpace(depth, branching, _read_only(probs))


def space_from_json(obj: dict) -> TreeSpace:
    if not isinstance(obj, dict):
        raise ValueError("must be a JSON object")
    return make_tree_space(obj["depth"], obj["branching"], obj.get("leaf_probs", "uniform"))


def as_leaf_vector(space: TreeSpace, values, nonnegative: bool = False) -> np.ndarray:
    """Coerce values to a float leaf vector over the space."""
    v = np.asarray(values, dtype=float)
    if v.shape != (space.n_leaves,):
        raise ValueError(f"expected {space.n_leaves} leaf values, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("leaf values must be finite")
    if nonnegative and not (v >= 0.0).all():
        raise ValueError("leaf values must be nonnegative")
    return v


def _as_bool(m: np.ndarray) -> np.ndarray:
    """A mask array of bools as it is, or one of exact 0s and 1s as a fresh
    bool copy; any other entry (0.5, NaN) raises instead of counting as
    inside the set."""
    if m.dtype == bool:
        return m
    if not ((m == 0) | (m == 1)).all():
        raise ValueError("mask entries must be booleans or exactly 0 or 1")
    return m.astype(bool)


def as_leaf_mask(space: TreeSpace, mask) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != (space.n_leaves,):
        raise ValueError(f"expected {space.n_leaves} mask entries, got {m.shape}")
    return _as_bool(m)


def _as_leaf_masks(space: TreeSpace, masks) -> np.ndarray:
    """A (B, leaves) stack of bool leaf masks, one per row."""
    m = np.asarray(masks)
    if m.ndim != 2 or m.shape[1] != space.n_leaves:
        raise ValueError(f"expected a stack of {space.n_leaves}-entry masks, got {m.shape}")
    return _as_bool(m)


def _weighted_probs(space: TreeSpace, weight=None) -> np.ndarray:
    """The leaf masses of mu (weight None) or of weight * mu, after checking
    that the weight is strictly positive."""
    if weight is None:
        return space.leaf_probs
    weight = np.asarray(weight, dtype=float)
    if not (weight > 0.0).all():
        raise ValueError("weight must be strictly positive")
    return space.leaf_probs * weight


def _weighted_parts(space: TreeSpace, f, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """f, the numerator leaf vector of E_n(f) and the leaf masses of the
    measure: None for leaf_probs (whose atom masses the space caches), or
    leaf_probs * sigma after checking that sigma is positive."""
    f = np.asarray(f, dtype=float)
    if sigma is None:
        return f, space.leaf_probs * f, None
    return f, space.leaf_probs * f * sigma, _weighted_probs(space, sigma)


def _level_masses(space: TreeSpace, probs: np.ndarray, levels: int | None = None,
                  out=None) -> np.ndarray:
    """The masses of the atoms of every level below depth (or of the first
    `levels` levels) under the leaf masses probs (or each row of a stack), as
    the first atom_offsets entries of a per-atom process (into out, which may
    run on past them): level n is atom_sums(probs, n)."""
    levels = space.depth if levels is None else levels
    if out is None:
        out = np.empty(probs.shape[:-1] + (space.atom_offsets[levels],))
    for n in range(levels):
        _run_sums(probs, space.atom_size(n), out=space.level(out, n))
    return out


def _mean_atoms(space: TreeSpace, num: np.ndarray, dens: np.ndarray,
                leaves: np.ndarray) -> np.ndarray:
    """The per-atom process whose levels below depth are the level sums of the
    numerator leaf masses num over dens (atom masses as _level_masses gives
    them), summed straight into the output and divided there, and whose leaf
    level is `leaves`: E_n(f), or E_n^sigma(g) over the atoms' sigma-masses."""
    out = np.empty(leaves.shape[:-1] + (space.atom_offsets[-1],))
    below = _level_masses(space, num, out=out[..., :space.atom_offsets[-2]])
    np.divide(below, dens, out=below)
    out[..., space.atom_offsets[-2]:] = leaves
    return out


def atom_means(space: TreeSpace, f: np.ndarray, n: int, sigma=None) -> np.ndarray:
    """Conditional expectation at level n, one value per level-n atom: the
    average of f over the atom under the leaf probabilities, or, with a
    strictly positive density sigma, under leaf_probs * sigma (the change of
    measure E_n(f sigma) / E_n(sigma)).  Level depth returns f itself exactly."""
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    f, num, w = _weighted_parts(space, f, sigma)
    if n == space.depth:
        return f.copy()
    return space.atom_sums(num, n) / (space.level(space.atom_masses, n) if w is None
                                      else space.atom_sums(w, n))


def cond_exp(space: TreeSpace, f: np.ndarray, n: int, sigma=None) -> np.ndarray:
    """atom_means on the leaves: E_n(f), or E_n^sigma(f), as a leaf vector."""
    return space.expand(atom_means(space, f, n, sigma), n)


def cond_exp_atoms(space: TreeSpace, f: np.ndarray, sigma=None) -> np.ndarray:
    """Every level of E_n(f) (or of E_n^sigma(f)) in one pass, as a per-atom
    process (TreeSpace.atom_offsets): level n holds atom_means(space, f, n,
    sigma), bit for bit, and level depth f itself.  A (B, leaves) stack f
    gives a (B, atoms) stack."""
    f, num, w = _weighted_parts(space, f, sigma)
    dens = space.atom_masses if w is None else _level_masses(space, w)
    return _mean_atoms(space, num, dens, f)


def cond_exp_matrix(space: TreeSpace, f: np.ndarray, sigma=None) -> np.ndarray:
    """cond_exp_atoms on the leaves: row n is cond_exp(space, f, n, sigma), bit
    for bit.  A (B, leaves) stack f gives a (B, depth+1, leaves) stack."""
    return space.expand_levels(cond_exp_atoms(space, f, sigma))


@dataclass(frozen=True, eq=False)
class StoppingTime:
    """Leaf-wise stopped level in {0..N} or INFINITE (= -1), held read-only
    (a writable argument is copied), so that derived facts can be cached."""

    values: np.ndarray

    INFINITE = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(self.values))

    @cached_property
    def finite(self) -> np.ndarray:
        finite = self.values != self.INFINITE
        finite.setflags(write=False)
        return finite

    def to_json(self) -> dict:
        """{"runs": [s0, e0, n0, s1, e1, n1, ...]}: the maximal leaf runs [s, e)
        of one finite level n each (_leaf_runs); a leaf outside every run is
        INFINITE."""
        return _leaf_runs(times=[self.values])[1][0]


def _leaf_runs(sets: Sequence[np.ndarray] = (),
               times: Sequence[np.ndarray] = ()) -> tuple[list, list]:
    """The JSON forms of leaf sets (bool masks) and of stopping times (leaf
    values), all of one length: per set the flat bounds [s0, e0, s1, e1, ...]
    of its maximal runs of leaves, per time {"runs": [s0, e0, n0, s1, e1,
    n1, ...]}, its maximal runs of one finite level n; each run is the
    half-open [s, e), its entries Python ints.  The rows are stacked and
    scanned together, at most _RUN_CHUNK_ENTRIES entries (at least one row)
    per pass, not one numpy call per row."""
    rows = [*sets, *times]
    if not rows:
        return [], []
    out = []
    step = max(1, _RUN_CHUNK_ENTRIES // rows[0].size)
    for at in range(0, len(rows), step):
        out += _chunk_runs(rows[at:at + step], len(sets[at:at + step]))
    return out[:len(sets)], out[len(sets):]


def _chunk_runs(rows: list, n_sets: int) -> list:
    """_leaf_runs of one stack, its first n_sets rows sets and the rest times."""
    stack = np.array(rows, dtype=np.int64)
    stack[:n_sets] -= 1  # a set's leaves at 0 and the rest at INFINITE, as a time's
    count, leaves = stack.shape
    flat = stack.ravel()
    # the run bounds: every change between neighbours, each row's start, the end
    cut = np.empty(flat.size + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(flat[1:], flat[:-1], out=cut[1:-1])
    cut[leaves:-1:leaves] = True
    bounds = np.flatnonzero(cut)
    levels = flat[bounds[:-1]]
    runs = np.flatnonzero(levels != StoppingTime.INFINITE)
    first = bounds[runs]
    row, starts = np.divmod(first, leaves)
    table = np.array([starts, starts + (bounds[runs + 1] - first), levels[runs]]).T
    at = np.searchsorted(row, np.arange(count + 1)).tolist()
    split = at[n_sets]
    set_runs = table[:split, :2].ravel().tolist()
    time_runs = table[split:].ravel().tolist()
    return ([set_runs[2 * lo:2 * hi] for lo, hi in zip(at[:n_sets], at[1:n_sets + 1])]
            + [{"runs": time_runs[3 * (lo - split):3 * (hi - split)]}
               for lo, hi in zip(at[n_sets:], at[n_sets + 1:])])


def _time_from_runs(space: TreeSpace, runs) -> np.ndarray:
    """The leaf values of to_json's run form, after its checks (ValueError):
    integer entries (a bool or a float such as 1.0 is refused, not
    truncated) in triples, bounds in 0..leaves, runs nonempty, sorted and
    apart, levels in 0..depth."""
    if not isinstance(runs, list) or len(runs) % 3:
        raise ValueError("stopping-time runs must be a list of (start, end, level) triples")
    for v in runs:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"stopping-time run entry {v!r} is not an integer")
    if runs and not (0 <= min(runs) and max(runs) <= space.n_leaves):
        raise ValueError(f"stopping-time run entries must lie in 0..{space.n_leaves}")
    starts, ends, levels = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    if levels.size and levels.max() > space.depth:
        raise ValueError(f"stopping-time run levels must lie in 0..{space.depth}")
    if (ends <= starts).any() or (starts[1:] < ends[:-1]).any():
        raise ValueError("stopping-time runs must be nonempty, sorted and not overlap")
    values = np.full(space.n_leaves, StoppingTime.INFINITE, dtype=np.int64)
    for s, e, n in zip(starts.tolist(), ends.tolist(), levels.tolist()):
        values[s:e] = n
    return values


def stopping_time_from_json(space: TreeSpace, obj: dict) -> StoppingTime:
    """The time of to_json's {"runs": [...]} (_time_from_runs), or of the leaf
    form {"values": [...]}: each value a level (an integer) or "inf"; a
    float, a bool or any other value is refused, not truncated."""
    if "runs" in obj:
        tau = StoppingTime(_time_from_runs(space, obj["runs"]))
    else:
        vals = [StoppingTime.INFINITE if v == "inf" else v for v in obj["values"]]
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not (
                    StoppingTime.INFINITE <= v <= space.depth):
                raise ValueError(
                    f'stopping-time value {v!r} is not a level 0..{space.depth} or "inf"')
        tau = StoppingTime(np.array(vals, dtype=np.int64))
    if not is_stopping_time(space, tau):
        raise ValueError("values do not define an adapted stopping time")
    return tau


def is_stopping_time(space: TreeSpace, tau: StoppingTime) -> bool:
    """Adaptedness: each level set {tau = n} must be a union of level-n
    atoms (the n = depth and infinite sets are unconstrained)."""
    return tau.values.ndim == 1 and _adapted_scan(space, tau.values)


def _adapted_scan(space: TreeSpace, vals: np.ndarray) -> bool:
    """Whether the leaf-wise levels vals, or every row of a (C, leaves)
    stack of them, are adapted.  Atoms are runs of leaves, so {tau = n} is a
    union of level-n atoms for every n iff no two neighbouring leaves in one
    level-n atom disagree on it: one pass over leaf pairs.  Cast to
    unsigned, INFINITE wraps above every level, so "a stops inside their
    shared atom" is a <= shared."""
    if vals.ndim > 2 or vals.shape[-1:] != (space.n_leaves,) or vals.dtype.kind not in "iu":
        return False
    if vals.min() < StoppingTime.INFINITE or vals.max() > space.depth:
        return False
    u = vals.astype(np.uint64, copy=False)
    left, right = u[..., :-1], u[..., 1:]
    return not ((left != right) & (np.minimum(left, right) <= space.shared_level)).any()


def count_stopping_times(space: TreeSpace) -> int:
    """Closed-form count: a level-N node stops at N or never (2 choices);
    an internal node either stops its atom or defers to its children."""
    count = 2
    for _ in range(space.depth):
        count = 1 + count**space.branching
    return count


def _subtree_times(space: TreeSpace, level: int) -> Iterator[np.ndarray]:
    """Every stopping-time value block of one subtree rooted at `level`, each
    a fresh array: the atom stopped at `level`, then every combination of the
    children's blocks, which (by uniformity they depend only on the level)
    are materialized once and reused across sibling positions."""
    if level == space.depth:
        yield np.array([space.depth], dtype=np.int64)
        yield np.array([StoppingTime.INFINITE], dtype=np.int64)
        return
    yield np.full(space.atom_size(level), level, dtype=np.int64)
    children = list(_subtree_times(space, level + 1))
    for combo in itertools.product(children, repeat=space.branching):
        yield np.concatenate(combo)


def enumerate_stopping_times(space: TreeSpace) -> Iterator[StoppingTime]:
    """An iterator over every adapted stopping time, each exactly once.

    Raises EnumerationCapError at the call when the closed-form count exceeds
    ENUMERATION_CAP; sample_stopping_time is the fallback.  A kept family
    (TreeShape.kept_family) is shared: every call yields the same read-only
    times, whose finite masks are computed once per shape; a larger family is
    streamed afresh on every call and never held whole."""
    total = count_stopping_times(space)
    if total > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{_about(total)} stopping times exceed the cap {ENUMERATION_CAP}; "
            "use a sampled family"
        )
    family = space.shape.kept_family
    return _stream_times(space) if family is None else iter(family.times)


@dataclass(frozen=True, eq=False)
class _KeptFamily:
    """The whole stopping-time family of one tree shape (it reads only the
    shape), and, built on first use, its stopped-entry gather."""

    times: tuple[StoppingTime, ...]

    @cached_property
    def gather(self) -> tuple[dict, tuple[np.ndarray, ...]]:
        """The flat indices of every time, grouped by finite-leaf count c:
        one read-only (k_c, c) matrix per count, counts ascending, rows the
        times' entries values[x] * leaves + x at their finite leaves x, in
        leaf order, times in family order; and {tau: slot}, the kept time's
        (eq=False: keyed by identity) row in those matrices stacked.  A row
        sum of `table.ravel()[matrix]` is then the 1-D sum of the time's own
        gather, bit for bit; a row padded with zeros to a common width would
        sum in other pairwise blocks."""
        values = np.array([tau.values for tau in self.times])
        finite = values != StoppingTime.INFINITE
        counts = finite.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        flat = values * values.shape[1] + np.arange(values.shape[1])
        matrices = []
        for c in np.unique(counts):
            rows = order[counts[order] == c]
            matrices.append(_frozen(flat[rows][finite[rows]].reshape(rows.size, c)))
        slots = {self.times[i]: slot for slot, i in enumerate(order.tolist())}
        return slots, tuple(matrices)

    @cached_property
    def finite_leaves(self) -> list[int]:
        """The finite-leaf count of each slot of the gather."""
        return [m.shape[1] for m in self.gather[1] for _ in range(len(m))]


def _stream_times(space: TreeSpace) -> Iterator[StoppingTime]:
    return (StoppingTime(_frozen(block)) for block in _subtree_times(space, 0))


def sample_stopping_time(space: TreeSpace, rng: np.random.Generator) -> StoppingTime:
    """Draw uniformly among all adapted stopping times.

    A node at level n stops with probability 1/S(n) where S(n) counts the
    times of its subtree; since S(n) = 1 + S(n+1)**r the recursion is
    exactly uniform over the whole family.
    """
    counts = [0] * (space.depth + 1)
    counts[space.depth] = 2
    for n in range(space.depth - 1, -1, -1):
        counts[n] = 1 + counts[n + 1] ** space.branching
    values = np.empty(space.n_leaves, dtype=np.int64)

    def fill(level: int, lo: int, hi: int) -> None:
        if level == space.depth:
            values[lo:hi] = level if rng.integers(2) == 0 else StoppingTime.INFINITE
            return
        if rng.random() < 1.0 / counts[level]:
            values[lo:hi] = level
            return
        step = (hi - lo) // space.branching
        for c in range(space.branching):
            fill(level + 1, lo + c * step, lo + (c + 1) * step)

    fill(0, 0, space.n_leaves)
    return StoppingTime(_frozen(values))


def stopped(space: TreeSpace, atoms: np.ndarray, tau: StoppingTime, otherwise) -> np.ndarray:
    """An adapted process at a stopping time, read on its atoms: where tau is
    finite, the value at x of the level-tau(x) atom that contains x (the
    entry TreeSpace.atom_index of the per-atom process), and `otherwise` (a
    scalar or leaf vector) where tau is infinite."""
    return np.where(tau.finite, atoms[space.atom_index(np.maximum(tau.values, 0))], otherwise)


def stopped_value(space: TreeSpace, f: np.ndarray, tau: StoppingTime) -> np.ndarray:
    """The stopped martingale: E_{tau(x)}(f)(x) where tau is finite and
    f(x) itself where tau is infinite.  Equals the conditional expectation
    with respect to the stopped sigma-field."""
    if not is_stopping_time(space, tau):
        raise ValueError("tau is not an adapted stopping time")
    f = np.asarray(f, dtype=float)
    return stopped(space, cond_exp_atoms(space, f), tau, f)


def is_stopped_measurable(space: TreeSpace, tau: StoppingTime, mask: np.ndarray) -> bool:
    """Whether a leaf set A is in the stopped sigma-field of tau (each A & {tau = n}
    a union of level-n atoms): whether tau, kept on A and infinite off A, is adapted."""
    mask = as_leaf_mask(space, mask)
    return _adapted_scan(space, np.where(mask, tau.values, StoppingTime.INFINITE))
