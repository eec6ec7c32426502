"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np

from martbench import (
    FunctionVector,
    SawyerCell,
    SawyerTrace,
    StoppingTime,
    TreeSpace,
    function_norms_product,
    level_products,
    lp_norm,
    make_exponent_sequence,
    make_tree_space,
    make_weight_system,
    sample_stopping_time,
)
from martbench import weights as weights_mod
from martbench.holder import (
    _component_slots,
    _conditional_parts,
    _entry_levels,
    _norm_parts,
    level_product_atoms,
    trial_vector,
)
from martbench.report import (
    ABS_FLOOR,
    REL_TOL,
    _margin,
    _power,
    _within_margin,
    check_inequality,
)
from martbench.maximal import _level_sets
from martbench.theorems import NO_BAND, _passage_blocks, band_index, snell_testing_sup
from martbench.weights import _normalized_ratios, _support_masses, sp_constant_argmax


# tree shapes (depth, branching) of 1 to 4,096 leaves, branching 2 and 3
SHAPES = [(0, 2), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (5, 3), (8, 2), (9, 2), (12, 2)]


def shape_id(shape):
    return f"{shape[1]}^{shape[0]}"


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


def numpy_atom_sums(space: TreeSpace, x, n: int) -> np.ndarray:
    """The level-n atom sums of a leaf vector (or of each row of a stack) as
    numpy takes them, independent of the library's own sum kernel."""
    x = np.asarray(x)
    return x.reshape(x.shape[:-1] + (space.n_atoms(n), space.atom_size(n))).sum(axis=-1)


def full_atoms_oracle(space: TreeSpace, masks) -> np.ndarray:
    """Per level n, the leaves whose level-n atom lies inside the mask, from
    integer leaf counts per atom: a (depth+1, leaves) bool matrix, or a
    (B, depth+1, leaves) stack for a (B, leaves) stack of masks."""
    masks = np.asarray(masks, dtype=bool)
    return np.stack([
        space.expand(numpy_atom_sums(space, masks, n) == space.atom_size(n), n)
        for n in space.levels
    ], axis=-2)


def cond_exp_matrix_oracle(space: TreeSpace, f, sigma=None) -> np.ndarray:
    """The dense (depth+1, leaves) level matrix of E_n(f), or of E_n^sigma(f),
    built level by level on the leaves (a (B, leaves) stack gives a stack):
    row n holds each level-n atom's average on its leaves, row depth f."""
    f = np.asarray(f, dtype=float)
    w = space.leaf_probs if sigma is None else space.leaf_probs * sigma
    num = space.leaf_probs * f if sigma is None else space.leaf_probs * f * sigma
    out = np.empty(f.shape[:-1] + (space.depth + 1, space.n_leaves))
    for n in range(space.depth):
        blocks = out.reshape(out.shape[:-1] + (space.n_atoms(n), space.atom_size(n)))
        blocks[..., n, :, :] = (numpy_atom_sums(space, num, n)
                                / numpy_atom_sums(space, w, n))[..., None]
    out[..., space.depth, :] = f
    return out


def level_products_oracle(space: TreeSpace, fvec: FunctionVector, seq):
    """The level products on dense leaf matrices: the components' level
    matrices multiplied leaf by leaf, under the vector's mask Q (a leaf mask,
    or a (B, leaves) stack) with an infinite tail times [n >= entry level],
    and with a finite family times E_n(chi_Q) once per padded head slot."""
    mask = fvec.mask
    batch = () if mask is None else mask.shape[:-1]
    rows = np.ones(batch + (space.depth + 1, space.n_leaves))
    for f in fvec.active:
        rows *= cond_exp_matrix_oracle(space, f if mask is None else f * mask)
    if mask is None:
        return rows
    if not seq.is_finite_family:
        rows *= np.arange(space.depth + 1)[:, None] >= _entry_levels(space, mask)[..., None, :]
    elif fvec.n_active < seq.head_len:
        rows *= cond_exp_matrix_oracle(space, mask) ** (seq.head_len - fvec.n_active)
    return rows


def ap_level_values_oracle(ws) -> np.ndarray:
    """The joint-condition level matrix on the leaves: E_n(v)**(1/p) times
    E_n(sigma_i)**(1/p'_i) per active slot, from the dense level matrices."""
    seq = ws.seq
    rows = cond_exp_matrix_oracle(ws.space, ws.v) ** seq.aggregate_reciprocal
    for i, s in enumerate(ws.sigmas):
        rows = rows * cond_exp_matrix_oracle(ws.space, s) ** (1.0 - 1.0 / seq.head[i])
    return rows


def density_rows_oracle(ws) -> np.ndarray:
    """R on the leaves: the product of the sigma_i's dense level matrices."""
    rows = np.ones((ws.space.depth + 1, ws.space.n_leaves))
    for s in ws.sigmas:
        rows *= cond_exp_matrix_oracle(ws.space, s)
    return rows


def dense_testing_table_oracle(ws) -> np.ndarray:
    """The testing table from the dense R: row n is leaf_probs * v * (the
    leaf's running maximum of R from the bottom level up to n)**p, then a
    zero row."""
    space, p = ws.space, 1.0 / ws.seq.aggregate_reciprocal
    table = np.zeros((space.depth + 2, space.n_leaves))
    tail_max = np.maximum.accumulate(density_rows_oracle(ws)[::-1], axis=0)[::-1]
    table[:-1] = space.leaf_probs * ws.v * tail_max**p
    return table


def conditional_check_oracle(space: TreeSpace, fvec: FunctionVector, seq, n: int):
    """(lhs, rhs, first leaf of the reported atom) of holder_conditional_check
    on the leaves: both sides as leaf vectors of E_n, the report's leaf the
    first failing one, or the worst one when all pass."""
    rp = seq.aggregate_reciprocal
    integrand = np.ones(space.n_leaves)
    for f in fvec.active:
        integrand = integrand * f
    if fvec.mask is not None:
        integrand = np.where(fvec.mask, integrand, 0.0)
    lhs = cond_exp_matrix_oracle(space, integrand ** (1.0 / rp))[n] ** rp
    rhs = np.ones(space.n_leaves)
    for g, e in _norm_parts(space, fvec.active, seq, mask=fvec.mask):
        rhs *= cond_exp_matrix_oracle(space, g)[n] ** e
    bound = rhs + REL_TOL * abs(rhs) + ABS_FLOOR
    ok = (lhs <= bound) & (rhs < math.inf)
    at = int(np.argmax(lhs - bound) if ok.all() else np.argmin(ok))
    return float(lhs[at]), float(rhs[at]), at


def level_verdict_oracle(space: TreeSpace, fvec: FunctionVector, seq, n: int,
                         tolerance: float = REL_TOL):
    """(lhs, rhs, atom) of holder_conditional_check at level n from the kept
    sides (_conditional_parts) by a verdict on that level's slice alone: the
    first failing atom, or the one with the largest lhs - _margin(rhs) when
    all pass."""
    lhs, rhs = (space.level(side, n) for side in _conditional_parts(space, fvec, seq))
    ok = _within_margin(lhs, rhs, tolerance)
    at = int(np.argmax(lhs - _margin(rhs, tolerance)) if ok.all() else np.argmin(ok))
    return float(lhs[at]), float(rhs[at]), at


def shared_level_oracle(space: TreeSpace) -> np.ndarray:
    """TreeSpace.shared_level by one int64 modulo pass per atom size: per
    pair of neighbouring leaves x, x + 1, depth - 1 less one for each size
    r**1 .. r**(depth-1) that divides x + 1, as uint64."""
    right = np.arange(1, space.n_leaves)
    shared = np.full(right.size, space.depth - 1)
    for size in space.branching ** np.arange(1, space.depth):
        shared -= right % size == 0
    return shared.astype(np.uint64)


def ap_from_testing_oracle(ws, c_rh: float):
    """(per-atom ratios, c_test_observed, passed) of verify_testing_to_ap with
    the reverse-Hoelder constant c_rh, level by level: at each level n the
    norm factors' level-n atom sums, each powered, multiplied in one np.prod,
    and the numerator's level-n sums of v times the expanded level-n density
    product to the p-th power."""
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    scale = _power(c_rh, rp)
    whole = np.ones(space.n_leaves, dtype=bool)
    parts = _norm_parts(space, ws.sigmas, seq, ws.active_weights, whole)
    ratios = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        density = ws.density_atoms ** p
        for n in space.levels:
            rhs = np.prod([numpy_atom_sums(space, space.leaf_probs * g, n) ** e
                           for g, e in parts], 0)
            powered = space.expand(space.level(density, n), n)
            numer = numpy_atom_sums(space, space.leaf_probs * ws.v * powered, n)
            ratios.append(numer**rp / rhs)
    ratios = np.concatenate(ratios)
    c_test_observed = float(np.max(ratios))
    report = check_inequality("testing-to-ap", ws.ap_max, c_test_observed * scale)
    passed = report.passed and bool(_within_margin(ws.ap_atoms, ratios * scale, REL_TOL).all())
    return ratios, c_test_observed, passed


def masked_tail_products_oracle(space: TreeSpace, fvec: FunctionVector, masks) -> np.ndarray:
    """level_products of an unmasked vector under a mask (or a (B, leaves)
    stack of masks) with an infinite tail: the masked components' level
    matrices, times the full-atom indicator of full_atoms_oracle."""
    masks = np.asarray(masks, dtype=bool)
    rows = np.ones(masks.shape[:-1] + (space.depth + 1, space.n_leaves))
    for f in fvec.active:
        rows *= cond_exp_matrix_oracle(space, f * masks)
    rows *= full_atoms_oracle(space, masks)
    return rows


def sampled_supports_oracle(space: TreeSpace, family) -> np.ndarray:
    """The distinct nonempty supports of a sampled family {"count": k,
    "seed": s} in the order first drawn, as a (K, leaves) bool array: k
    stopping times drawn afresh from default_rng(s) on every call, no cache."""
    rng = np.random.default_rng(family["seed"])
    drawn = (sample_stopping_time(space, rng).finite for _ in range(int(family["count"])))
    distinct = list({f.tobytes(): f for f in drawn if f.any()}.values())  # first-drawn order
    return np.array(distinct, dtype=bool).reshape(-1, space.n_leaves)


def sp_ratios_oracle(ws, masks) -> np.ndarray:
    """The testing ratio of each support F in a (B, leaves) stack from the
    masked level products, one (B, depth+1, leaves) block per stack: the
    maximal function of sigma chi_F on F, its p-th power against v, over the
    normalized bases.  An overflowed product times a vanishing indicator is
    NaN here (inf * 0)."""
    masks = np.asarray(masks, dtype=bool)
    space, rp = ws.space, ws.seq.aggregate_reciprocal
    rows = level_products(space, FunctionVector(ws.sigmas, masks), ws.seq)
    numer = (masks * (space.leaf_probs * ws.v * rows.max(axis=-2) ** (1.0 / rp))).sum(-1)
    return _normalized_ratios(ws, _support_masses(ws, masks), numer, inverse=True) ** rp


def streamed_chunks(space: TreeSpace, family, width=None, drawn=None):
    """The family as the scans streamed it before any family was kept:
    (B, leaves) bool chunks, B * width at most weights.SCAN_CHUNK_FLOATS
    (width leaves by default), "all" decoded afresh from the bitmasks
    1 .. 2**leaves - 1 in order, a sampled family drawn afresh
    (sampled_supports_oracle) unless `drawn` holds that draw already."""
    rows = max(1, weights_mod.SCAN_CHUNK_FLOATS // (width or space.n_leaves))
    if family == "all":
        end, bits = 2**space.n_leaves, np.arange(space.n_leaves)
        return [((np.arange(lo, min(lo + rows, end))[:, None] >> bits) & 1).astype(bool)
                for lo in range(1, end, rows)]
    family = sampled_supports_oracle(space, family) if drawn is None else drawn
    return [family[lo : lo + rows] for lo in range(0, len(family), rows)]


def family_max_oracle(ws, chunks, kernel):
    """The largest kernel(ws, masks) ratio over the chunks and the first
    support in scan order attaining it; the first NaN ends the scan, with
    its support as the witness."""
    best, arg = 0.0, None
    for masks in chunks:
        r = kernel(ws, masks)
        i = int(r.argmax())  # the first NaN, else the first maximum
        if not r[i] <= best:  # larger, or NaN
            best, arg = float(r[i]), masks[i].copy()
            if math.isnan(best):
                break
    return best, arg


def streamed_scan(ws, family, kernel, drawn=None):
    """The scan of weights.rh_ratios or weights.sp_ratios over the streamed
    family (streamed_chunks), chunked as the scans chunk it: a
    finite-family testing scan (depth+1) * leaves floats per support, every
    other scan leaves."""
    space = ws.space
    finite_sp = kernel is weights_mod.sp_ratios and ws.seq.is_finite_family
    width = (space.depth + 1) * space.n_leaves if finite_sp else None
    return family_max_oracle(ws, streamed_chunks(space, family, width, drawn), kernel)


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


def mask_from_runs(leaves: int, runs) -> np.ndarray:
    """The leaf mask of the flat run bounds [s0, e0, s1, e1, ...], one leaf at
    a time."""
    mask = np.zeros(leaves, dtype=bool)
    for s, e in zip(runs[::2], runs[1::2]):
        mask[s:e] = True
    return mask


def values_from_runs(leaves: int, runs) -> np.ndarray:
    """The leaf values of a time's runs [s0, e0, n0, ...], INFINITE outside
    every run, one leaf at a time."""
    values = np.full(leaves, StoppingTime.INFINITE, dtype=np.int64)
    for s, e, n in zip(runs[::3], runs[1::3], runs[2::3]):
        values[s:e] = n
    return values


def first_passage_time(space: TreeSpace, level_values: np.ndarray, threshold) -> StoppingTime:
    """The dense first passage: tau = least n with X_n > threshold for an
    adapted process given as a (depth+1, leaves) matrix whose row n is
    constant on level-n atoms, as the argmax of its hits over the levels."""
    rows = np.asarray(level_values, dtype=float)
    if rows.shape != (space.depth + 1, space.n_leaves):
        raise ValueError(f"expected {(space.depth + 1, space.n_leaves)} matrix, got {rows.shape}")
    hits = rows > threshold
    values = np.where(hits.any(axis=0), hits.argmax(axis=0), StoppingTime.INFINITE)
    return StoppingTime(values.astype(np.int64))


def dense_stopped_oracle(space: TreeSpace, rows: np.ndarray, tau: StoppingTime, otherwise):
    """An adapted process at a stopping time from its (depth+1, leaves) leaf
    matrix: rows[tau(x), x] where tau is finite, `otherwise` where not."""
    levels = np.clip(tau.values, 0, space.depth)
    return np.where(tau.finite, rows[levels, np.arange(space.n_leaves)], otherwise)


def stopped_reward_oracle(ws, rows: np.ndarray, tau: StoppingTime, p: float) -> float:
    """integral over {tau finite} of (prod E_tau(f_i))**p v dmu, with the
    stopped rows picked leaf by leaf (0 where tau is infinite)."""
    contrib = ws.space.leaf_probs * ws.v * dense_stopped_oracle(ws.space, rows, tau, 0.0) ** p
    return float(contrib[tau.finite].sum())


def union_of_atoms_oracle(space: TreeSpace, mask: np.ndarray, n: int) -> bool:
    """Whether a leaf set is a union of level-n atoms, from per-atom counts."""
    if n == space.depth:
        return True
    size = space.atom_size(n)
    counts = mask.reshape(space.n_atoms(n), size).sum(axis=1)
    return bool(np.all((counts == 0) | (counts == size)))


def stopped_measurable_oracle(space: TreeSpace, tau: StoppingTime, mask: np.ndarray) -> bool:
    """Membership in the stopped sigma-field level by level: the part of the
    set inside each {tau = n} must be a union of level-n atoms."""
    mask = np.asarray(mask, dtype=bool)
    return all(
        union_of_atoms_oracle(space, mask & (tau.values == n), n) for n in range(space.depth)
    )


def sawyer_trace_oracle(ws, gvec: FunctionVector) -> SawyerTrace:
    """The Sawyer trace slot by slot: tau_k at the Python threshold 2.0**k
    (it raises OverflowError at k = 1024), and the stopped density and
    weighted ratio products picked from leaf matrices per band and slot."""
    space, seq = ws.space, ws.seq
    p = 1.0 / seq.aggregate_reciprocal
    slots = _component_slots(space, gvec.active, ws.sigmas, seq)
    rows = level_products(space, FunctionVector(tuple(g * s for g, s in slots), None), seq)
    maximal = rows.max(axis=0)
    if not np.any(maximal > 0.0):
        return SawyerTrace(None, None, {}, {}, maximal, [])
    k_lo = int(band_index(maximal[maximal > 0.0].min()))
    k_hi = int(band_index(maximal.max()))
    taus = {k: first_passage_time(space, rows, 2.0**k) for k in range(k_lo, k_hi + 2)}
    weighted_mats = [cond_exp_matrix_oracle(space, g, s) for g, s in slots]
    sigma_mats = [cond_exp_matrix_oracle(space, s) for s in ws.sigmas]
    cells = {}
    for k in range(k_lo, k_hi + 1):
        tau = taus[k]
        fin = tau.finite
        if not fin.any():
            continue
        band_mask = fin & ~taus[k + 1].finite
        density = np.ones(space.n_leaves)
        for mat, (_, s) in zip(sigma_mats, slots):
            density = density * dense_stopped_oracle(space, mat, tau, s)
        ratio_g = np.ones(space.n_leaves)
        for mat, (g, _) in zip(weighted_mats, slots):
            ratio_g = ratio_g * dense_stopped_oracle(space, mat, tau, g)
        js = band_index(density)
        for j in np.unique(js[fin]):
            j = int(j)
            a_mask = fin & (js == j)
            b_mask = band_mask & (js == j)
            theta = float(np.sum((space.leaf_probs * ws.v * density**p)[b_mask]))
            t_value = float(ratio_g[a_mask].min() ** p)
            cells[(k, j)] = SawyerCell(a_mask, b_mask, theta, t_value)
    lambda_sets = []
    for lam in sorted({c.t_value for c in cells.values()}):
        keys = [key for key, c in cells.items() if c.t_value > lam]
        if not keys:
            continue
        g_mask = np.zeros(space.n_leaves, dtype=bool)
        for key in keys:
            g_mask |= cells[key].a_mask
        lambda_sets.append((lam, keys, g_mask))
    return SawyerTrace(k_lo, k_hi, cells, taus, maximal, lambda_sets)


def sawyer_invariants_oracle(ws, trace: SawyerTrace) -> dict:
    """The trace invariants cell by cell and band by band, with membership
    in the stopped sigma-fields from stopped_measurable_oracle."""
    space = ws.space
    finite = all(math.isfinite(y) for y in trace.maximal_values)
    if trace.is_empty:
        return dict.fromkeys(
            ("b_disjoint", "bands_covered", "b_inside_a", "a_measurable", "theta_nonnegative"),
            True,
        ) | {"maximal_finite": finite}
    b_total = np.zeros(space.n_leaves, dtype=np.int64)
    for cell in trace.cells.values():
        b_total += cell.b_mask
    covered = True
    for k in range(trace.k_lo, trace.k_hi + 1):
        union = np.zeros(space.n_leaves, dtype=bool)
        for (kk, _), cell in trace.cells.items():
            if kk == k:
                union |= cell.b_mask
        covered = covered and bool(np.array_equal(union, trace.band(k)))
    return {
        "b_disjoint": bool(np.all(b_total <= 1)),
        "bands_covered": covered,
        "b_inside_a": all(bool(np.all(c.b_mask <= c.a_mask)) for c in trace.cells.values()),
        "a_measurable": all(
            stopped_measurable_oracle(space, trace.taus[k], cell.a_mask)
            for (k, _), cell in trace.cells.items()
        ),
        "theta_nonnegative": all(c.theta >= 0.0 for c in trace.cells.values()),
        "maximal_finite": finite,
    }


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


def strong_estimate_oracle(ws, trials: int, seed: int) -> float:
    """estimate_best_constant("strong") one trial at a time: per trial vector
    (trial_vector, and at trial 2 the all-ones vector masked by the testing
    witness), lp_norm of the maximal function of (g_i sigma_i) against v over
    function_norms_product against the sigma_i."""
    space, seq = ws.space, ws.seq
    p = 1.0 / seq.aggregate_reciprocal
    m = seq.head_len
    ratios = []
    for trial in range(trials):
        if trial != 2:
            fvec = trial_vector(space, m, seed, trial, 1e3)
        else:
            family = "all" if 2**space.n_leaves - 1 <= 4096 else {"count": 256, "seed": 0}
            fvec = FunctionVector(tuple(np.ones(space.n_leaves) for _ in range(m)),
                                  sp_constant_argmax(ws, family)[1])
        slots = _component_slots(space, fvec.active, ws.sigmas, seq)
        with np.errstate(over="ignore"):
            rows = level_products(space, FunctionVector(tuple(g * s for g, s in slots), fvec.mask),
                                  seq)
        lhs = lp_norm(space, rows.max(axis=0), p, ws.v)
        rhs = function_norms_product(space, fvec, seq, ws.sigmas)
        ratios.append(0.0 if rhs <= 0.0 else lhs / rhs)
    return float(np.max(ratios))


def stopped_rewards_oracle(space: TreeSpace, atoms: np.ndarray, reward: np.ndarray,
                           thresholds) -> np.ndarray:
    """Per threshold, the reward over the finite leaves of the first passage
    above it, one time at a time: each passage's own flat gather, compacted
    to its finite leaves and summed."""
    rewards = []
    for tau in itertools.chain.from_iterable(_passage_blocks(space, atoms, thresholds)):
        # the reward's flat index; a never-stopping leaf's wraps to the last row, unread
        picked = reward.ravel()[tau * space.n_leaves + space.leaf_index]
        rewards.append(picked[tau != StoppingTime.INFINITE].sum())
    return np.array(rewards)


def per_threshold_oracle(ws, fvec: FunctionVector, c_test: float, tolerance: float = REL_TOL):
    """verify_testing_to_weak's report with the stopped rewards taken one
    threshold at a time (stopped_rewards_oracle), and the norm product from
    function_norms_product: (report, stopped rewards)."""
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    atoms = level_product_atoms(space, fvec, seq)
    with np.errstate(over="ignore", invalid="ignore"):
        reward = space.leaf_probs * ws.v * space.expand_levels(atoms ** (1.0 / rp))
        rhs = function_norms_product(space, fvec, seq, ws.active_weights)
    thresholds, masses = _level_sets(space, space.level_sup(atoms), ws.v)
    rewards = stopped_rewards_oracle(space, atoms, reward, np.nextafter(thresholds, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        weak = thresholds * masses ** (1.0 / p)
        within = _within_margin(weak, rewards**rp, tolerance)
    report = check_inequality("testing-to-weak", np.max(weak, initial=0.0), rhs, c_test,
                              tolerance, {"n_thresholds": len(thresholds), "space": space.digest})
    report.passed = report.passed and bool(within.all())
    return report, rewards


def band_stack_oracle(ws, fvec: FunctionVector, c_weak: float, tolerance: float = REL_TOL):
    """verify_weak_to_testing's report from the band stack: per chunk of
    (level, band) pairs a (bands, leaves) mask stack, the sliced vector's
    _norm_parts factors built and powered under it and summed per band, and
    the norm product from function_norms_product: (report, v_sums,
    factor_sums), the slice sums in pair order (levels, then bands,
    ascending)."""
    space, seq = ws.space, ws.seq
    p = 1.0 / seq.aggregate_reciprocal
    with np.errstate(over="ignore", invalid="ignore"):
        atoms = level_product_atoms(space, fvec, seq)
        rhs = function_norms_product(space, fvec, seq, ws.active_weights)
    bi = space.expand_levels(band_index(atoms))
    banded = bi != NO_BAND
    lo = bi.min(initial=0, where=banded)
    span = bi.max(initial=0, where=banded) - lo + 1
    keys = (bi - lo + span * np.arange(space.depth + 1)[:, None])[banded]
    levels, ks = np.divmod(np.unique(keys), span)
    ks += lo
    chunk = max(1, weights_mod.SCAN_CHUNK_FLOATS // ((seq.head_len + 1) * space.n_leaves))
    all_ok, partitions, v_sums, factor_sums = True, {}, [], []
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_pth = float(np.float64(rhs) ** p)
        c_weak_pth = np.float64(c_weak) ** p
        c_prime = float(_power(2.0, p) * c_weak_pth)
        for at in range(0, levels.size, chunk):
            n_c, k_c = levels[at:at + chunk], ks[at:at + chunk]
            bands = bi[n_c] == k_c[:, None]
            sliced = bands if fvec.mask is None else bands & fvec.mask
            parts = _norm_parts(space, fvec.active, seq, ws.active_weights, sliced)
            sums = [(space.leaf_probs * g).sum(-1) for g, _ in parts]
            norms = np.prod([s**e for s, (_, e) in zip(sums, parts)], axis=0)
            v_sums.append((space.leaf_probs * ws.v * bands).sum(-1))
            factor_sums.append(sums)
            lhs = np.ldexp(1.0, k_c) ** p * v_sums[-1]
            all_ok &= bool(_within_margin(lhs, c_weak_pth * norms**p, tolerance).all())
            for n, k, band in zip(n_c.tolist(), k_c.tolist(), bands):
                partitions.setdefault(n, {})[k] = (
                    np.flatnonzero(band).tolist() if space.n_leaves <= 64 else int(band.sum()))
    report = check_inequality(
        "weak-to-testing", snell_testing_sup(ws, fvec), rhs_pth, c_prime, tolerance,
        {"bands_per_level": partitions, "stopping_sup": "exact", "space": space.digest})
    report.passed = report.passed and all_ok
    n_factors = max(fvec.n_active, len(ws.active_weights)) + 1  # the slots and the pad
    return (report, np.concatenate([np.empty(0), *v_sums]),
            np.concatenate([np.empty((n_factors, 0)), *map(np.array, factor_sums)], axis=1))


def assert_same_report(got, want) -> None:
    """Every field of two reports alike, floats bit for bit (by repr, under
    which NaN equals NaN and an np.float64 differs from a float)."""
    for name in ("inequality", "lhs", "rhs", "constant", "slack", "passed", "tolerance",
                 "metadata"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def assert_close(a: float, b: float, rel: float = 1e-12) -> None:
    assert abs(a - b) <= rel * max(abs(a), abs(b), 1.0), f"{a} != {b}"
