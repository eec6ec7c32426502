"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from martbench import (
    FunctionVector,
    StoppingTime,
    TreeSpace,
    lp_norm,
    make_exponent_sequence,
    make_tree_space,
    make_weight_system,
    stopped,
)


def random_space(rng: np.random.Generator, max_depth: int = 3, branchings=(2, 3)) -> TreeSpace:
    depth = int(rng.integers(1, max_depth + 1))
    branching = int(rng.choice(branchings))
    n = branching**depth
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    probs[-1] += 1.0 - probs.sum()
    return make_tree_space(depth, branching, probs)


def random_sequence(rng: np.random.Generator, max_head: int = 4, allow_finite: bool = True):
    m = int(rng.integers(1, max_head + 1))
    head = list(rng.uniform(1.2, 6.0, m))
    if allow_finite and rng.random() < 0.3:
        return make_exponent_sequence(head, 0.0)
    tail_mass = float(rng.uniform(0.02, 0.5))
    tail_ratio = float(rng.uniform(0.2, 0.8))
    if tail_mass * (1.0 - tail_ratio) >= 1.0:
        tail_mass = 0.5
    return make_exponent_sequence(head, tail_mass, tail_ratio)


def random_positive(rng: np.random.Generator, space: TreeSpace, spread: float = 4.0) -> np.ndarray:
    return np.exp(rng.uniform(-np.log(spread), np.log(spread), space.n_leaves))


def random_weight_system(rng: np.random.Generator, space: TreeSpace, seq, spread: float = 4.0):
    n_active = int(rng.integers(1, seq.head_len + 1))
    weights = [random_positive(rng, space, spread) for _ in range(n_active)]
    return make_weight_system(space, seq, weights, random_positive(rng, space, spread))


def random_fvec(rng: np.random.Generator, space: TreeSpace, seq, spread: float = 6.0) -> FunctionVector:
    n_active = int(rng.integers(1, seq.head_len + 1))
    comps = tuple(random_positive(rng, space, spread) for _ in range(n_active))
    return FunctionVector(comps, None)


def random_leaf_mask(rng: np.random.Generator, space: TreeSpace, allow_empty: bool = False) -> np.ndarray:
    mask = rng.random(space.n_leaves) < 0.5
    if not allow_empty and not mask.any():
        mask[int(rng.integers(space.n_leaves))] = True
    return mask


def stopped_average_oracle(space: TreeSpace, f: np.ndarray, tau: StoppingTime) -> np.ndarray:
    """Conditional expectation with respect to the stopped sigma-field by
    explicit partition averaging: atoms of the stopped field are the
    level-n atoms inside {tau = n} and the single leaves of {tau = inf}."""
    out = np.array(f, dtype=float, copy=True)
    w = space.leaf_probs
    for n in space.levels:
        for j in range(space.n_atoms(n)):
            sl = space.atom_slice(n, j)
            if np.all(tau.values[sl] == n):
                out[sl] = np.sum(w[sl] * f[sl]) / np.sum(w[sl])
    return out


def stopped_reward_oracle(ws, rows: np.ndarray, tau: StoppingTime, p: float) -> float:
    """integral over {tau finite} of (prod E_tau(f_i))**p v dmu, with the
    stopped rows picked leaf by leaf (0 where tau is infinite)."""
    contrib = ws.space.leaf_probs * ws.v * stopped(ws.space, rows, tau, 0.0) ** p
    return float(contrib[tau.finite].sum())


def two_function_holder_oracle(space: TreeSpace, f1, f2, p1: float, p2: float):
    """Direct two-factor bound: both sides of
    ||f1 f2||_{L^p} <= ||f1||_{L^{p1}} ||f2||_{L^{p2}}, 1/p = 1/p1 + 1/p2."""
    w = space.leaf_probs
    p = 1.0 / (1.0 / p1 + 1.0 / p2)
    lhs = np.sum(w * np.abs(f1 * f2) ** p) ** (1.0 / p)
    rhs = np.sum(w * np.abs(f1) ** p1) ** (1.0 / p1) * np.sum(w * np.abs(f2) ** p2) ** (
        1.0 / p2
    )
    return float(lhs), float(rhs)


def norms_product_oracle(space: TreeSpace, fvec: FunctionVector, seq, weights=()) -> float:
    """prod_i ||f_i||_{L^{p_i}(w_i)} slot by slot: unmasked over the occupied
    slots; under a mask Q over all head slots, each f_i (1 past the active
    ones) times chi_Q, and an infinite tail adds the factor |Q|**tail_mass."""
    weights = list(weights)
    mask = fvec.mask
    n_slots = max(fvec.n_active, len(weights)) if mask is None else seq.head_len
    total = 1.0
    for i in range(n_slots):
        f = fvec.active[i] if i < fvec.n_active else np.ones(space.n_leaves)
        w = weights[i] if i < len(weights) else None
        total *= lp_norm(space, f if mask is None else f * mask, seq.head[i], w)
    if mask is not None:
        total *= float(np.sum(space.leaf_probs[mask])) ** seq.tail_mass
    return total


def assert_close(a: float, b: float, rel: float = 1e-12) -> None:
    assert abs(a - b) <= rel * max(abs(a), abs(b), 1.0), f"{a} != {b}"
