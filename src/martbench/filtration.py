"""Finite filtered probability spaces modeled as uniform r-adic trees.

A TreeSpace of depth N and branching r carries r**N leaves with positive
probabilities.  Level n partitions the leaves into r**n consecutive blocks
(the atoms of the n-th sigma-field); level N is the full power set.
Conditional expectations are atom averages, stopping times are leaf-wise
level assignments whose level sets respect the atom structure, and the
value infinity is the integer sentinel StoppingTime.INFINITE, never a
float.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

MAX_LEAVES = 1 << 20
ENUMERATION_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """The stopping-time family is too large to enumerate; sample instead."""


@dataclass(frozen=True, eq=False)
class TreeSpace:
    depth: int
    branching: int
    leaf_probs: np.ndarray

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
        """Per-atom sums of a leaf vector at level n."""
        return x.reshape(self.n_atoms(n), self.atom_size(n)).sum(axis=1)

    def expand(self, atom_values: np.ndarray, n: int) -> np.ndarray:
        """Broadcast per-atom values at level n back to leaves."""
        return np.repeat(atom_values, self.atom_size(n))

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.depth},{self.branching};".encode())
        h.update(self.leaf_probs.tobytes())
        return h.hexdigest()[:12]

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "branching": self.branching,
            "leaf_probs": [float(p) for p in self.leaf_probs],
        }


def make_tree_space(
    depth: int, branching: int, leaf_probs: Sequence[float] | str = "uniform"
) -> TreeSpace:
    """Validate and build a TreeSpace; "uniform" gives equal leaf masses."""
    if depth < 0:
        raise ValueError(f"depth {depth} must be >= 0")
    if branching < 2:
        raise ValueError(f"branching {branching} must be >= 2")
    n = branching**depth
    if n > MAX_LEAVES:
        raise ValueError(f"{n} leaves exceeds the {MAX_LEAVES} leaf guard")
    if isinstance(leaf_probs, str):
        if leaf_probs != "uniform":
            raise ValueError(f"unknown leaf_probs spec {leaf_probs!r}")
        probs = np.full(n, 1.0 / n)
    else:
        probs = np.asarray(leaf_probs, dtype=float)
        if probs.shape != (n,):
            raise ValueError(f"expected {n} leaf probabilities, got {probs.shape}")
        if not np.all(probs > 0.0):
            raise ValueError("leaf probabilities must be positive")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"leaf probabilities sum to {total}, expected 1")
    probs.setflags(write=False)
    return TreeSpace(depth, branching, probs)


def space_from_json(obj: dict) -> TreeSpace:
    return make_tree_space(obj["depth"], obj["branching"], obj.get("leaf_probs", "uniform"))


def as_leaf_vector(space: TreeSpace, values, nonnegative: bool = False) -> np.ndarray:
    """Coerce values to a float leaf vector over the space."""
    v = np.asarray(values, dtype=float)
    if v.shape != (space.n_leaves,):
        raise ValueError(f"expected {space.n_leaves} leaf values, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("leaf values must be finite")
    if nonnegative and not np.all(v >= 0.0):
        raise ValueError("leaf values must be nonnegative")
    return v


def as_leaf_mask(space: TreeSpace, mask) -> np.ndarray:
    m = np.asarray(mask)
    if m.shape != (space.n_leaves,):
        raise ValueError(f"expected {space.n_leaves} mask entries, got {m.shape}")
    return m.astype(bool)


def cond_exp(space: TreeSpace, f: np.ndarray, n: int, sigma=None) -> np.ndarray:
    """Conditional expectation at level n: the average of f over each
    level-n atom under the leaf probabilities, or, with a strictly positive
    density sigma, under leaf_probs * sigma (the change of measure
    E_n(f sigma) / E_n(sigma)).  Level depth returns f itself exactly."""
    if not 0 <= n <= space.depth:
        raise ValueError(f"level {n} out of range 0..{space.depth}")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if not np.all(sigma > 0.0):
            raise ValueError("sigma must be strictly positive")
    f = np.asarray(f, dtype=float)
    if n == space.depth:
        return f.copy()
    w = space.leaf_probs
    num = w * f
    if sigma is not None:
        num, w = num * sigma, w * sigma
    return space.expand(space.atom_sums(num, n) / space.atom_sums(w, n), n)


def cond_exp_matrix(space: TreeSpace, f: np.ndarray, sigma=None) -> np.ndarray:
    """All levels at once: row n is cond_exp(space, f, n, sigma)."""
    return np.stack([cond_exp(space, f, n, sigma) for n in space.levels])


@dataclass(frozen=True, eq=False)
class StoppingTime:
    """Leaf-wise stopped level in {0..N} or INFINITE (= -1)."""

    values: np.ndarray

    INFINITE = -1

    @property
    def finite(self) -> np.ndarray:
        return self.values != self.INFINITE

    def support(self) -> np.ndarray:
        """The event that the time is finite, as a leaf mask."""
        return self.finite

    def key(self) -> bytes:
        return self.values.tobytes()

    def to_json(self) -> dict:
        return {
            "values": [int(v) if v != self.INFINITE else "inf" for v in self.values]
        }


def stopping_time_from_json(space: TreeSpace, obj: dict) -> StoppingTime:
    raw = obj["values"]
    vals = np.array(
        [StoppingTime.INFINITE if v == "inf" else int(v) for v in raw], dtype=np.int64
    )
    tau = StoppingTime(vals)
    if not is_stopping_time(space, tau):
        raise ValueError("values do not define an adapted stopping time")
    return tau


def _is_union_of_atoms(space: TreeSpace, mask: np.ndarray, n: int) -> bool:
    if n == space.depth:
        return True
    size = space.atom_size(n)
    counts = mask.reshape(space.n_atoms(n), size).sum(axis=1)
    return bool(np.all((counts == 0) | (counts == size)))


def is_stopping_time(space: TreeSpace, tau: StoppingTime) -> bool:
    """Adaptedness scan: each level set {tau = n} must be a union of
    level-n atoms (the n = depth and infinite sets are unconstrained)."""
    vals = tau.values
    if vals.shape != (space.n_leaves,):
        return False
    ok = (vals == StoppingTime.INFINITE) | ((vals >= 0) & (vals <= space.depth))
    if not np.all(ok):
        return False
    return all(
        _is_union_of_atoms(space, vals == n, n) for n in range(space.depth)
    )


def count_stopping_times(space: TreeSpace) -> int:
    """Closed-form count: a level-N node stops at N or never (2 choices);
    an internal node either stops its atom or defers to its children."""
    count = 2
    for _ in range(space.depth):
        count = 1 + count**space.branching
    return count


def _subtree_times(space: TreeSpace, level: int) -> list[np.ndarray]:
    """All stopping-time value blocks for one subtree rooted at `level`.

    By uniformity the block depends only on the level, so levels >= 1 are
    materialized once and reused across sibling positions.
    """
    width = space.atom_size(level)
    if level == space.depth:
        return [
            np.array([space.depth], dtype=np.int64),
            np.array([StoppingTime.INFINITE], dtype=np.int64),
        ]
    children = _subtree_times(space, level + 1)
    out = [np.full(width, level, dtype=np.int64)]
    for combo in itertools.product(children, repeat=space.branching):
        out.append(np.concatenate(combo))
    return out


def enumerate_stopping_times(
    space: TreeSpace, cap: int = ENUMERATION_CAP
) -> Iterator[StoppingTime]:
    """Yield every adapted stopping time exactly once.

    Raises EnumerationCapError when the closed-form count exceeds `cap`;
    callers should fall back to sample_stopping_time."""
    total = count_stopping_times(space)
    if total > cap:
        raise EnumerationCapError(
            f"{total} stopping times exceed the cap {cap}; use a sampled family"
        )
    if space.depth == 0:
        for block in _subtree_times(space, 0):
            yield StoppingTime(block)
        return
    yield StoppingTime(np.zeros(space.n_leaves, dtype=np.int64))
    children = _subtree_times(space, 1)
    for combo in itertools.product(children, repeat=space.branching):
        yield StoppingTime(np.concatenate(combo))


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
    return StoppingTime(values)


def first_passage_time(
    space: TreeSpace, level_values: np.ndarray, threshold: float
) -> StoppingTime:
    """tau = least n with X_n > threshold for an adapted process given as a
    (depth+1, leaves) matrix whose row n is constant on level-n atoms."""
    rows = np.asarray(level_values, dtype=float)
    if rows.shape != (space.depth + 1, space.n_leaves):
        raise ValueError(f"expected {(space.depth + 1, space.n_leaves)} matrix, got {rows.shape}")
    hits = rows > threshold
    first = hits.argmax(axis=0)
    ever = hits.any(axis=0)
    values = np.where(ever, first, StoppingTime.INFINITE).astype(np.int64)
    return StoppingTime(values)


def stopped(space: TreeSpace, rows: np.ndarray, tau: StoppingTime, otherwise) -> np.ndarray:
    """An adapted process at a stopping time: rows[tau(x), x] where tau is
    finite and `otherwise` (a scalar or leaf vector) where it is infinite;
    row n of the (depth+1, leaves) matrix is the process at level n."""
    idx = np.clip(tau.values, 0, space.depth)
    return np.where(tau.finite, rows[idx, np.arange(space.n_leaves)], otherwise)


def stopped_value(space: TreeSpace, f: np.ndarray, tau: StoppingTime) -> np.ndarray:
    """The stopped martingale: E_{tau(x)}(f)(x) where tau is finite and
    f(x) itself where tau is infinite.  Equals the conditional expectation
    with respect to the stopped sigma-field."""
    if not is_stopping_time(space, tau):
        raise ValueError("tau is not an adapted stopping time")
    f = np.asarray(f, dtype=float)
    return stopped(space, cond_exp_matrix(space, f), tau, f)


def is_stopped_measurable(space: TreeSpace, tau: StoppingTime, mask: np.ndarray) -> bool:
    """Whether a leaf set belongs to the stopped sigma-field of tau: its
    intersection with each {tau = n} must be a union of level-n atoms."""
    mask = as_leaf_mask(space, mask)
    return all(
        _is_union_of_atoms(space, mask & (tau.values == n), n)
        for n in range(space.depth)
    )
