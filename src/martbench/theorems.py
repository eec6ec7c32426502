"""Quantitative verification of the two equivalence theorems.

Each proof implication becomes a checkable inequality whose constant is
materialized exactly as the argument yields it:

  joint condition -> testing        with the joint-condition constant C_A
  testing -> weak type              with the supplied testing constant
  weak type -> testing              with 2**p * C_weak**p (dyadic slicing)
  testing -> joint condition        with C_test * C_RH**(1/p)
  testing condition -> strong type  with 4 * C_S * C_RH**(1/p) * prod p'_i

The strong-type argument runs through a dyadic decomposition of the
maximal function by first-passage times tau_k, with cells A_{k,j}, B_{k,j}
graded by the stopped density product, a cell measure theta, and a cell
functional T.  sawyer_decomposition materializes that bookkeeping as an
inspectable trace whose set identities are exact on a finite space.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import weights
from .exponents import conjugate_product
from .filtration import (
    StoppingTime,
    _adapted_scan,
    _frozen,
    _kept_family,
    _leaf_runs,
    _level_masses,
    _level_starts,
    _run_sums,
    is_stopping_time,
)
from .holder import (
    FunctionVector,
    _component_slots,
    _keep_last,
    _norm_parts,
    _norms_product,
    _pad,
    _row_norms_products,
    function_norms_product,
    level_product_atoms,
    trial_vector,
)
from .maximal import _level_sets, _weighted_rows, gen_doob_maximal, weak_lp_norm
from .report import REL_TOL, VerificationReport, _margin, _power, _within_margin, check_inequality
from .weights import (
    WeightSystem,
    rh_constant,
    sp_constant_argmax,
    sp_support_ratio,
)


NO_BAND = np.iinfo(np.int64).min  # band_index of NaN and of y <= 0


def band_index(values: np.ndarray) -> np.ndarray:
    """The integer k with 2**k < y <= 2**(k+1), exact via frexp.  As at the
    thresholds np.ldexp(1.0, k), 2**1024 is inf, so inf is in the top band
    1023; NaN and y <= 0 are in no band and give NO_BAND."""
    y = np.asarray(values, dtype=float)
    mant, expo = np.frexp(np.minimum(y, sys.float_info.max))
    return np.where(y > 0.0, expo.astype(np.int64) - 1 - (mant == 0.5), NO_BAND)


@_keep_last
def _testing_parts(ws: WeightSystem, fvec: FunctionVector) -> tuple:
    """Level products per atom, norm product, stopping reward and norm-factor
    masses of the last (system, vector) pair; both hash by identity, and the
    arrays are read-only and kept alive here until the next pair's build.
    Row n of the reward is leaf_probs * v * (prod E_n f_i)**p, the power taken
    per atom and then expanded; readers gather finite leaves only
    (StoppingTime.flat_index), so no row stands for the INFINITE value.  The
    masses are the (leaf_probs * g, e) pairs of the vector's _norm_parts
    factors, the pad pair (leaf_probs * chi_Q, pad) last under a mask Q; the
    norm product is _norms_product of them, bit for bit function_norms_product.
    An unmasked vector's product has no pad factor, but a band slice of the
    vector has one (verify_weak_to_testing), so it keeps (leaf_probs, pad)
    last.  A product past the float range is inf (and inf * 0 NaN), which
    fails the report it reaches."""
    space, seq = ws.space, ws.seq
    with np.errstate(over="ignore", invalid="ignore"):
        masses = [(_frozen(space.leaf_probs * g), e)
                  for g, e in _norm_parts(space, fvec.active, seq, ws.active_weights, fvec.mask)]
        rhs = _norms_product(masses)
        if fvec.mask is None:
            masses.append((space.leaf_probs, _pad(seq, masses)))
        atoms = level_product_atoms(space, fvec, seq)
        powered = space.expand_levels(atoms ** (1.0 / seq.aggregate_reciprocal))
        reward = space.leaf_probs * ws.v * powered
    return _frozen(atoms), rhs, _frozen(reward), tuple(masses)


@functools.lru_cache(maxsize=1)
def _family_reports(ws: WeightSystem, fvec: FunctionVector) -> tuple:
    """What a per-time report of the last (system, vector) pair reads:
    (slots, row by slot, rhs, ap_max, digest), a row (lhs, slack, verdict,
    finite leaves).  A slot's left side is _power(reward, 1/p) of its stopped
    reward, one gather and row sum per finite-leaf count (_KeptFamily.gather),
    bit for bit the sum of the time's own gather; the powers are the float
    power, which is _power's where none overflows, and are redone by _power
    where one does.  Its slack and verdict are check_inequality's at REL_TOL,
    from the same float operations (the bound c_a * rhs, the slack bound -
    lhs, the verdict lhs <= _margin(bound)), and the verdict is None where
    the left side or the bound is not finite (when all are, the verdicts are
    one bool array).  The slot map is empty where the family streams."""
    family = _kept_family(ws.space)
    _, rhs, reward, _ = _testing_parts(ws, fvec)
    rhs, c_a = float(rhs), float(ws.ap_max)
    slots, rows = {}, []
    if family is not None:
        slots, matrices = family.gather
        rp = ws.seq.aggregate_reciprocal
        sums = [r for m in matrices for r in reward.ravel()[m].sum(axis=1).tolist()]
        try:  # the float power is _power's wherever none overflows
            lhs = list(map(pow, sums, itertools.repeat(rp)))
        except OverflowError:
            lhs = [_power(r, rp) for r in sums]
        bound, sides = c_a * rhs, np.array(lhs)
        if math.isfinite(bound) and np.isfinite(sides).all():
            verdicts = sides <= _margin(bound)
        else:
            verdicts = np.where(np.isfinite(sides) & math.isfinite(bound),
                                sides <= _margin(bound), None)
        with np.errstate(invalid="ignore"):  # inf - inf, in a row whose verdict is None
            slack = (bound - sides).tolist()
        rows = list(zip(lhs, slack, verdicts.tolist(), family.finite_leaves))
    return slots, rows, rhs, c_a, ws.space.digest


def verify_ap_to_testing(
    ws: WeightSystem,
    fvec: FunctionVector,
    tau: StoppingTime | None = None,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Testing inequality with the joint-condition constant:
    (int_{tau<inf} (prod E_tau(f_i))**p v dmu)**(1/p)
        <= C_A * prod ||f_i||_{L^{p_i}(omega_i)},
    at tau, or (tau None) at the exact supremum over all stopping times
    (snell_testing_sup).  The parts that do not depend on tau are cached.
    A kept time of ws.space's shape (at most KEPT_FAMILY_TIMES) is adapted by
    construction and reads its row of the table (_family_reports) filled for
    the whole family at the first per-time call of a (system, vector) pair:
    at the default tolerance, with both sides finite, the row is the report.
    Any other time is checked for adaptedness and sums its own gather of the
    reward, bit for bit the table's entry; it, a non-finite side and any
    other tolerance build the report in check_inequality."""
    if tau is None:
        lhs = _power(snell_testing_sup(ws, fvec), ws.seq.aggregate_reciprocal)
        rhs, c_a = _testing_parts(ws, fvec)[1], ws.ap_max
        return check_inequality("ap-to-testing", lhs, rhs, c_a, tolerance,
                                {"stopping_sup": "exact", "space": ws.space.digest})
    slots, rows, rhs, c_a, digest = _family_reports(ws, fvec)
    slot = slots.get(tau)
    if slot is not None:
        lhs, slack, passed, leaves = rows[slot]
        if passed is not None and tolerance == REL_TOL:
            return VerificationReport("ap-to-testing", lhs, rhs, c_a, slack, passed, tolerance,
                                      {"space": digest, "finite_leaves": leaves})
    elif not is_stopping_time(ws.space, tau):
        raise ValueError("tau is not an adapted stopping time")
    else:
        reward = float(_testing_parts(ws, fvec)[2].ravel()[tau.flat_index].sum())
        lhs, leaves = _power(reward, ws.seq.aggregate_reciprocal), tau.flat_index.size
    return check_inequality("ap-to-testing", lhs, rhs, c_a, tolerance,
                            {"space": digest, "finite_leaves": leaves})


def verify_testing_to_weak(
    ws: WeightSystem,
    fvec: FunctionVector,
    c_test: float,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Weak-type bound recovered through level-set first passage.

    For each distinct value t of the maximal function, the first-passage
    time just below t has support exactly {maximal >= t}; the stopped
    product dominates t there, so
    t * |{maximal >= t}|_v**(1/p) <= testing side <= c_test * norm product.
    The stopped rewards come from _stopped_rewards.  The report checks the
    largest term (weak_lp_norm's value) against the right end; an overflowed
    or NaN maximal value fails it.
    """
    space, rp = ws.space, ws.seq.aggregate_reciprocal
    p = 1.0 / rp
    atoms, rhs, reward, _ = _testing_parts(ws, fvec)
    thresholds, masses = _level_sets(space, space.level_sup(atoms), ws.v)
    # X_n > nextafter(t, 0) is X_n >= t: the support is {maximal >= t}
    stopped = _stopped_rewards(space, atoms, reward, np.nextafter(thresholds, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0, fails below
        weak = thresholds * masses ** (1.0 / p)  # weak_lp_norm's terms, bit for bit
        within = _within_margin(weak, stopped ** rp, tolerance)
    report = check_inequality(
        "testing-to-weak",
        np.max(weak, initial=0.0),
        rhs,
        constant=c_test,
        tolerance=tolerance,
        metadata={"n_thresholds": len(thresholds), "space": space.digest},
    )
    report.passed = report.passed and bool(within.all())
    return report


def _stopped_rewards(space, atoms: np.ndarray, reward: np.ndarray,
                     thresholds: np.ndarray) -> np.ndarray:
    """Per threshold, the reward summed over the finite leaves of the first
    passage of the per-atom process above it, in leaf order: bit for bit the
    time's own gather.  The passages come in blocks (_passage_blocks), and
    each block takes one flat index into the reward, one gather and one
    finite mask; each row's compacted finite entries are then summed on
    their own, the same floats in the same order."""
    out = []
    for block in _passage_blocks(space, atoms, thresholds):
        # a never-stopping leaf's flat index wraps to the last row, and is not read
        index = block * space.n_leaves
        index += space.leaf_index  # in place: a large block allocates one array, not two
        picked = reward.ravel()[index]
        out += [row[fin].sum() for row, fin in zip(picked, block != StoppingTime.INFINITE)]
    return np.array(out, dtype=float)


def verify_weak_to_testing(
    ws: WeightSystem,
    fvec: FunctionVector,
    c_weak: float,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Testing bound with the dyadic-slicing constant 2**p * c_weak**p.

    Per level n the sets B_k = {2**k < prod E_n(f_i) <= 2**(k+1)} are
    measurable at level n; the weak inequality applied to the sliced
    vector f chi_{B_k} bounds 2**(kp) |B_k|_v by c_weak**p times the
    sliced norm product to the p.  Summing the slices and interchanging
    with the norm product bounds every stopped integral by
    2**p * c_weak**p * prod (int f_i**p_i omega_i)**(p/p_i).
    The slice sums of every (level, band) pair come from _band_sums, and
    all bands are checked at once.  The left side is the exact supremum over
    all stopping times (snell_testing_sup); the slice partitions are
    reported for inspection.
    """
    rp = ws.seq.aggregate_reciprocal
    p = 1.0 / rp
    _, rhs, _, masses = _testing_parts(ws, fvec)
    ks, v_sums, factor_sums, partitions = _band_sums(ws, fvec)
    # past the float range a power is inf (and 0 * inf NaN); either fails a band
    # check, and the report through check_inequality's "reason"
    with np.errstate(over="ignore", invalid="ignore"):
        rhs_pth = float(np.float64(rhs) ** p)
        c_weak_pth = np.float64(c_weak) ** p
        c_prime = float(_power(2.0, p) * c_weak_pth)
        norms = math.prod(s ** e for s, (_, e) in zip(factor_sums, masses))  # in order, as np.prod
        lhs = np.ldexp(1.0, ks) ** p * v_sums
        all_ok = bool(_within_margin(lhs, c_weak_pth * norms**p, tolerance).all())

    report = check_inequality(
        "weak-to-testing",
        snell_testing_sup(ws, fvec),
        rhs_pth,
        constant=c_prime,
        tolerance=tolerance,
        metadata={
            "bands_per_level": partitions,
            "stopping_sup": "exact",
            "space": ws.space.digest,
        },
    )
    report.passed = report.passed and all_ok
    return report


def _band_sums(ws: WeightSystem, fvec: FunctionVector) -> tuple:
    """The dyadic slices of verify_weak_to_testing and their sums, one per
    nonempty (level n, band k) pair in key order (n * 4096 + k + 2048 on the
    atoms; bands lie in -1075..1023): (ks, v_sums, factor_sums, partitions).
    v_sums[j] sums leaf_probs * v over slice j, and factor_sums[i, j] the
    kept mass i (_testing_parts) over slice j under the vector's mask,
    np.where(sliced, mass, 0.0): on the slice w|f * 1.0|**p is w|f|**p and
    chi_Q is 1, off it w * 0**p is +0.0, so each row holds the sliced
    vector's _norm_parts factor as floats in the same layout, and nothing is
    powered per band (a product by the mask would turn an overflowed inf off
    the slice into NaN).  Leaf masks come in chunks of at most
    weights.SCAN_CHUNK_FLOATS / (factors + 1) entries.  partitions maps n to
    {k: the slice's leaf list up to 64 leaves, its leaf count above}."""
    space = ws.space
    atoms, _, _, masses = _testing_parts(ws, fvec)
    bands_at = band_index(atoms)
    keys = (_band_keys(space.depth, space.branching) + bands_at)[bands_at != NO_BAND]
    levels, ks = np.divmod(np.unique(keys), 4096)
    ks -= 2048
    bi = space.expand_levels(bands_at)
    weighted = space.leaf_probs * ws.v
    v_sums = np.empty(levels.size)
    factor_sums = np.empty((len(masses), levels.size))
    chunk = max(1, weights.SCAN_CHUNK_FLOATS // ((len(masses) + 1) * space.n_leaves))
    small = space.n_leaves <= 64
    partitions = {}
    for at in range(0, levels.size, chunk):
        n_c, k_c = levels[at:at + chunk], ks[at:at + chunk]
        bands = bi[n_c] == k_c[:, None]
        sliced = bands if fvec.mask is None else bands & fvec.mask
        v_sums[at:at + chunk] = np.where(bands, weighted, 0.0).sum(-1)
        for row, (mass, _) in zip(factor_sums, masses):
            row[at:at + chunk] = np.where(sliced, mass, 0.0).sum(-1)
        counts = bands.sum(-1).tolist()
        if small:  # each band's leaves: a run of the row-major nonzero columns
            leaves = bands.nonzero()[1].tolist()
            ends = itertools.accumulate(counts)
            counts = [leaves[end - c:end] for c, end in zip(counts, ends)]
        for n, k, entry in zip(n_c.tolist(), k_c.tolist(), counts):
            partitions.setdefault(n, {})[k] = entry
    return ks, v_sums, factor_sums, partitions


@functools.lru_cache(maxsize=16)
def _band_keys(depth: int, branching: int) -> np.ndarray:
    """Per atom of a per-atom process, n * 4096 + 2048 for its level n
    (read-only, built once per tree shape): plus the atom's band k in
    -1075..1023 it is the key of the atom's (level, band) pair, and the keys
    sort by level and then by band."""
    levels = range(depth + 1)
    return _frozen(np.repeat([n * 4096 + 2048 for n in levels], [branching**n for n in levels]))


def verify_testing_to_ap(
    ws: WeightSystem,
    family="all",
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Recover the joint condition from the testing inequality.

    On every level-n atom B, the extremal family sigma_i chi_B (tail masked
    by B; necessity_family_ap) in the testing inequality at the constant
    time n, with the reverse-Hoelder bound and the conditional product
    inequality, gives E_n(v)**(1/p) prod E_n(sigma_i)**(1/p'_i) <= ratio(B)
    * C_RH**(1/p).  The testing ratio is a quotient of level-n atom sums,
    taken for every atom of every level at once (_testing_ap_ratios; i over
    the active slots):

        ratio(B) = (int_B v prod_i E_n(sigma_i)**p)**(1/p)
                   / (prod_i (int_B w_i sigma_i**p_i)**(1/p_i) * |B|**pad)

    where pad = 1/p - sum_i 1/p_i is the reciprocal mass of the masked head
    padding and tail (the _norm_parts factors summed per atom).  The report
    compares the joint constant (the largest recovered value) with the
    largest ratio times C_RH**(1/p); a bound that is not finite fails its
    atom, and the report (check_inequality gives it its "reason").
    """
    space = ws.space
    c_rh = rh_constant(ws, family)
    scale = _power(c_rh, ws.seq.aggregate_reciprocal)
    ratios = _testing_ap_ratios(ws)
    atoms_ok = _within_margin(ws.ap_atoms, ratios * scale, tolerance)
    c_test_observed = float(np.max(ratios))  # np.max keeps a NaN, failing the report
    report = check_inequality(
        "testing-to-ap",
        ws.ap_max,
        c_test_observed * scale,
        tolerance=tolerance,
        metadata={
            "c_test_observed": c_test_observed,
            "c_rh": c_rh,
            "ap_constant": ws.ap_max,
            "space": space.digest,
        },
    )
    report.passed = report.passed and bool(atoms_ok.all())
    return report


def _testing_ap_ratios(ws: WeightSystem) -> np.ndarray:
    """The testing ratio of verify_testing_to_ap on every atom, per atom (as
    ws.ap_atoms).  Each norm factor's atom sums are taken for all levels in one
    pass (_level_masses) and powered once; the pad factor chi_B's are the atom
    masses, space.atom_masses and then leaf_probs (a run of one sums to its
    entry).  The numerator's level-n sums read level n of the powered density
    product.  A value that is not finite (an overflow, or inf / inf) is kept."""
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    rhs = np.ones(space.atom_offsets[-1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        parts = _norm_parts(space, ws.sigmas, seq, ws.active_weights)
        for g, e in parts:
            rhs *= _level_masses(space, space.leaf_probs * g, space.depth + 1) ** e
        # each atom sum restricts Q to B: the pad factor is |B|**pad
        rhs *= np.concatenate([space.atom_masses, space.leaf_probs]) ** _pad(seq, parts)
        density = ws.density_atoms ** (1.0 / rp)
        weighted = space.leaf_probs * ws.v
        numer = np.concatenate([
            space.atom_sums(weighted * space.expand(space.level(density, n), n), n)
            for n in space.levels])
        return numer**rp / rhs


@dataclass(frozen=True, eq=False)
class SawyerCell:
    a_mask: np.ndarray  # stopped-measurable envelope, graded by the density product
    b_mask: np.ndarray  # its slice inside one maximal-function band
    theta: float  # cell measure: int_B (prod E_tau(sigma_i))**p v dmu
    t_value: float  # cell functional: essinf_A (prod E^sigma_tau(g_i))**p


@dataclass(frozen=True, eq=False)
class SawyerTrace:
    k_lo: int | None
    k_hi: int | None
    cells: dict
    taus: dict
    maximal_values: np.ndarray
    lambda_sets: list

    @property
    def is_empty(self) -> bool:
        return self.k_lo is None

    def band(self, k: int) -> np.ndarray:
        return (self.maximal_values > 0.0) & (band_index(self.maximal_values) == k)

    def weighted_total(self) -> float:
        """sum over cells of T * theta."""
        return math.fsum(c.t_value * c.theta for c in self.cells.values())

    def to_json(self) -> dict:
        """The trace with every leaf set as flat run bounds ("a_runs",
        "b_runs", "g_runs": [s0, e0, s1, e1, ...]) and every time as runs
        (StoppingTime.to_json), all taken in one _leaf_runs scan."""
        cells = sorted(self.cells.items())
        ks = sorted(self.taus)
        sets, times = _leaf_runs([m for _, c in cells for m in (c.a_mask, c.b_mask)]
                                 + [g for _, _, g in self.lambda_sets],
                                 [self.taus[k].values for k in ks])
        return {
            "k_range": None if self.is_empty else [self.k_lo, self.k_hi],
            "cells": [
                {
                    "k": k,
                    "j": j,
                    "a_runs": sets[2 * i],
                    "b_runs": sets[2 * i + 1],
                    "theta": c.theta,
                    "t": c.t_value,
                }
                for i, ((k, j), c) in enumerate(cells)
            ],
            "taus": dict(zip(map(str, ks), times)),
            "lambda_sets": [
                {
                    "lambda": lam,
                    "cells": [list(key) for key in keys],
                    "g_runs": g,
                }
                for (lam, keys, _), g in zip(self.lambda_sets, sets[2 * len(cells):])
            ],
        }


def _strong_rows(ws: WeightSystem, gvec: FunctionVector) -> np.ndarray:
    """Level products per atom of the vector (g_i sigma_i) over the occupied
    head slots, masked as gvec is (a (T, leaves) mask stack, with components
    that may be stacks too, gives one row per mask); past the float range a
    product is inf."""
    with np.errstate(over="ignore"):  # fresh products: the vector keeps them without a copy
        comps = tuple(_frozen(g * s)
                      for g, s in _component_slots(ws.space, gvec.active, ws.sigmas, ws.seq))
    return level_product_atoms(ws.space, FunctionVector(comps, gvec.mask), ws.seq)


def sawyer_decomposition(ws: WeightSystem, gvec: FunctionVector) -> SawyerTrace:
    """Dyadic decomposition of the maximal function of (g_i sigma_i).

    tau_k is the first passage of the product of conditional expectations
    above 2**k (ldexp: 2**1024 is inf, so tau_1024 never stops); the band
    {2**k < maximal <= 2**(k+1)} equals {tau_k finite, tau_{k+1} infinite}
    and is graded into cells by the dyadic size of the stopped density
    product.  The density and weighted-ratio products are per-atom processes
    read at each tau_k, only inside {tau_k finite}.  The trace of the last
    (system, vector) pair is kept, its arrays read-only, so verify_sp_to_strong
    reads the trace its caller has just built.
    """
    if gvec.mask is not None:
        raise ValueError("masked vectors are not supported in the decomposition")
    return _sawyer_trace(ws, gvec)


def _passage_blocks(space, atoms: np.ndarray, thresholds: np.ndarray):
    """The first passages of the thresholds (TreeSpace.first_passages), as
    read-only (B, leaves) blocks of consecutive thresholds of at most
    weights.SCAN_CHUNK_FLOATS entries each (B at least 1)."""
    step = max(1, weights.SCAN_CHUNK_FLOATS // space.n_leaves)
    for at in range(0, thresholds.size, step):
        yield _frozen(space.first_passages(atoms, thresholds[at:at + step]))


@functools.lru_cache(maxsize=1)
def _sawyer_trace(ws: WeightSystem, gvec: FunctionVector) -> SawyerTrace:
    """The trace of the last (system, vector) pair; both hash by identity.
    The times come in passage blocks (_passage_blocks), tau_k a row of its
    block, and each block's cells are finished inside it (_block_cells) as
    soon as the following block gives the time after its last band.  The
    lambda-set unions are the prefixes of one cumulative OR over the
    envelopes in descending order of T."""
    space = ws.space
    # an infinite maximal value sits in band 1023 and fails maximal_finite,
    # an infinite T the trace inequality
    rows = _strong_rows(ws, gvec)
    maximal = _frozen(space.level_sup(rows))
    ks = band_index(maximal[maximal > 0.0])
    if not ks.size:
        return SawyerTrace(None, None, {}, {}, maximal, [])

    k_lo, k_hi = int(ks.min()), int(ks.max())
    # per atom, the density product and the weighted ratio: one gather picks both
    pair = np.array([ws.density_atoms,
                     _weighted_rows(space, gvec, ws.sigmas, ws.sigma_masses, ws.seq)])
    weighted = space.leaf_probs * ws.v
    p = 1.0 / ws.seq.aggregate_reciprocal
    taus, cells = {}, {}
    # 2**1024 is inf; past the float range a theta term or a T is inf
    with np.errstate(over="ignore"):
        blocks = _passage_blocks(space, rows, np.ldexp(1.0, np.arange(k_lo, k_hi + 2)))
        k = k_lo
        for block, following in itertools.pairwise(itertools.chain(blocks, [None])):
            taus.update(zip(range(k, k + len(block)), map(StoppingTime, block)))
            fin = block != StoppingTime.INFINITE
            # the finite masks of the next bands: the block's later rows, then the
            # following block's first; the last row, tau_{k_hi+1}, has no band
            after = fin[1:] if following is None else np.concatenate(
                [fin[1:], following[:1] != StoppingTime.INFINITE])
            cells.update(_block_cells(space, pair, weighted, p, block, fin[:len(after)], after, k))
            k += len(block)
    del pair  # not read again; at 2^20 leaves it holds 32 MB

    t_values = np.array([c.t_value for c in cells.values()])
    order = np.argsort(-t_values, kind="stable")  # NaN last: {T > lam} is a prefix
    envelopes = [c.a_mask for c in cells.values()]
    unions = _frozen(np.logical_or.accumulate(np.array([envelopes[i] for i in order]), axis=0))
    lambda_sets = []
    for lam in sorted({c.t_value for c in cells.values()}):
        keys = [key for key, c in cells.items() if c.t_value > lam]
        if keys:
            lambda_sets.append((lam, keys, unions[len(keys) - 1]))
    return SawyerTrace(k_lo, k_hi, cells, taus, maximal, lambda_sets)


def _block_cells(space, pair, weighted, p, block, fin, after, k0) -> dict:
    """The cells of the bands k0, k0 + 1, ... of one passage block: fin the
    bands' finite masks (the block's rows) and after those of the bands
    above.  Per finite entry, in band and then leaf order, one gather of
    pair at the entry's atom (TreeSpace.atom_index) gives the stopped
    density and weighted ratio.  One stable sort by (band, j) makes each
    cell a run of entries whose leaves ascend; theta's terms and T's minima
    are taken for all entries at once, and each theta is then the pairwise
    sum (np.add.reduce, as np.sum) of the cell's own compacted terms, each T
    the scalar power of its minimum (numpy's array power differs from the
    scalar one in the last place on some inputs).  Runs under the caller's
    np.errstate(over="ignore")."""
    bands, leaves = np.nonzero(fin)
    levels = block[bands, leaves]
    offsets, sizes = _level_starts(space.depth, space.branching)
    density, ratio = pair[:, offsets[levels] + leaves // sizes[levels]]
    js = band_index(density)
    order = np.lexsort((js, bands))  # stable: leaves ascend inside each cell
    bands, js, leaves = bands[order], js[order], leaves[order]
    first = np.ones(bands.size + 1, dtype=bool)  # the entries that start a cell, and the end
    first[1:-1] = (bands[1:] != bands[:-1]) | (js[1:] != js[:-1])
    bounds = np.flatnonzero(first)
    starts = bounds[:-1]
    envelopes = np.zeros((starts.size, space.n_leaves), dtype=bool)
    envelopes[np.cumsum(first[:-1]) - 1, leaves] = True
    _frozen(envelopes)  # before its rows are taken: they stay read-only
    slices = _frozen(envelopes & ~after[bands[starts]])
    inside = ~after[bands, leaves]
    # cell i's terms are terms[cut[i]:cut[i + 1]]: its entries inside the band, in leaf order
    cut = np.zeros(bands.size + 1, dtype=np.intp)
    np.cumsum(inside, out=cut[1:])
    cut = cut[bounds].tolist()
    terms = weighted[leaves[inside]] * density[order[inside]] ** p
    t_values = [float(m ** p) for m in np.minimum.reduceat(ratio[order], starts)]
    keys = zip((bands[starts] + k0).tolist(), js[starts].tolist())
    return {key: SawyerCell(a, b, float(np.add.reduce(terms[lo:hi])), t)
            for key, a, b, lo, hi, t in zip(keys, envelopes, slices, cut, cut[1:], t_values)}


def sawyer_trace_invariants(ws: WeightSystem, trace: SawyerTrace) -> dict:
    """Exact structural checks of a decomposition trace, read from its
    stored masks, times and maximal values alone: the band cells are
    disjoint, cover their bands, sit inside their envelopes, the envelopes
    belong to the stopped sigma-fields, and the cell measure is nonnegative;
    and the maximal function is finite.  The cells are scanned in stacks of
    at most weights.SCAN_CHUNK_FLOATS entries.  A band covers its cells'
    slices exactly when no slice leaves its own band and every leaf of a
    band lies in a slice of that band: one comparison per stack with the
    maximal function's band index, taken once.  Every envelope of a stack
    is checked at its time in one stopped-field scan (_adapted_scan)."""
    names = ("b_disjoint", "bands_covered", "b_inside_a", "a_measurable", "theta_nonnegative")
    finite = {"maximal_finite": bool(np.isfinite(trace.maximal_values).all())}
    if trace.is_empty:
        return dict.fromkeys(names, True) | finite
    space = ws.space
    bands = band_index(trace.maximal_values)
    holding = np.zeros(space.n_leaves, dtype=np.intp)  # slices holding each leaf
    reached = np.zeros(space.n_leaves, dtype=bool)  # in a slice of its own band
    stray = outside = False
    measurable = True
    cells = list(trace.cells.items())
    step = max(1, weights.SCAN_CHUNK_FLOATS // space.n_leaves)
    for at in range(0, len(cells), step):
        chunk = cells[at:at + step]
        ks = [k for (k, _), _ in chunk]
        a = np.array([c.a_mask for _, c in chunk])
        b = np.array([c.b_mask for _, c in chunk])
        own = bands == np.array(ks)[:, None]  # each cell's band
        holding += b.sum(axis=0)
        reached |= (b & own).any(axis=0)
        stray |= bool((b > own).any())
        outside |= bool((b > a).any())
        times = np.array([trace.taus[k].values for k in ks])
        measurable &= _adapted_scan(space, np.where(a, times, StoppingTime.INFINITE))
    in_bands = (bands >= trace.k_lo) & (bands <= trace.k_hi)
    return dict(zip(names, (
        bool((holding <= 1).all()),
        not stray and bool((reached == in_bands).all()),
        not outside,
        measurable,
        all(c.theta >= 0.0 for c in trace.cells.values()),
    ))) | finite


def verify_sp_to_strong(
    ws: WeightSystem,
    gvec: FunctionVector,
    c_s: float,
    c_rh: float,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Strong-type bound with the decomposition constant.

    Checks the trace inequality int maximal**p v <= 4**p sum T theta and
    the final bound
        ||maximal(g sigma)||_{L^p(v)}
            <= 4 * C_S * C_RH**(1/p) * (prod p'_i) * prod ||g_i||_{L^{p_i}(sigma_i)}
    with the conjugate product taken at its certified upper endpoint.
    """
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    trace = sawyer_decomposition(ws, gvec)
    maximal = trace.maximal_values
    with np.errstate(over="ignore"):  # an overflowed side is inf, and fails the report
        lhs_pth = float(np.sum(space.leaf_probs * ws.v * maximal**p))
    trace_rhs = _power(4.0, p) * trace.weighted_total()
    trace_ok = _within_margin(lhs_pth, trace_rhs, tolerance)

    conj_hi = conjugate_product(seq).hi
    c_final = 4.0 * c_s * _power(c_rh, rp) * conj_hi
    lhs = _power(lhs_pth, rp)
    rhs = function_norms_product(space, gvec, seq, ws.sigmas)

    report = check_inequality(
        "sp-to-strong",
        lhs,
        rhs,
        constant=c_final,
        tolerance=tolerance,
        metadata={
            "trace_lhs": lhs_pth,
            "trace_rhs": trace_rhs,
            "trace_pass": bool(trace_ok),
            "c_s": c_s,
            "c_rh": c_rh,
            "conjugate_product_hi": conj_hi,
            "n_cells": len(trace.cells),
            "space": space.digest,
        },
    )
    report.passed = report.passed and bool(trace_ok)
    return report


def snell_testing_sup(ws: WeightSystem, fvec: FunctionVector) -> float:
    """sup over all stopping times of int_{tau<inf} (prod E_tau f_i)**p v,
    exact by backward induction on the tree (the Snell envelope of the
    stopping reward), in O(leaves * depth) with no enumeration."""
    space = ws.space
    reward = _testing_parts(ws, fvec)[2]
    value = reward[space.depth]
    for n in range(space.depth - 1, -1, -1):
        stop = space.atom_sums(reward[n], n)
        cont = _run_sums(value, space.branching)
        value = np.maximum(stop, cont)
    return float(value[0])


_CONSTANT_IDS = ("testing", "weak", "strong", "sp-test")


def _strong_ratios(ws: WeightSystem, trials: int, seed: int) -> list[float]:
    """The ratio ||M(g sigma)||_{L^p(v)} / prod ||g_i||_{L^{p_i}(sigma_i)} of
    every trial of estimate_best_constant("strong"), in one stacked pass: the
    trials' components as (trials, leaves) stacks through _strong_rows, under
    a mask stack in which an unmasked trial has an all-true row (f * True and
    the tail factor x True are exact).  The L^p(v) sums run along the last
    axis, bit for bit lp_norm's 1-D sums, and the final powers are taken per
    trial on np.float64 scalars, as lp_norm takes them."""
    space, seq = ws.space, ws.seq
    p = 1.0 / seq.aggregate_reciprocal
    m = seq.head_len
    vectors = [trial_vector(space, m, seed, trial, 1e3) for trial in range(trials) if trial != 2]
    if trials > 2:
        # the testing family embeds via g_i = chi_F for every component, tail
        # included: a masked all-ones vector; above 4096 supports the witness
        # comes from a 256-sample family
        family = "all" if 2**space.n_leaves - 1 <= 4096 else {"count": 256, "seed": 0}
        witness = sp_constant_argmax(ws, family)[1]
        vectors.insert(2, FunctionVector((np.ones(space.n_leaves),) * m, witness))
    masks = _frozen(np.array([np.ones(space.n_leaves, bool) if fv.mask is None else fv.mask
                              for fv in vectors]))
    comps = tuple(_frozen(np.stack(c)) for c in zip(*(fv.active for fv in vectors)))
    maximal = space.level_sup(_strong_rows(ws, FunctionVector(comps, masks)))
    rhs = _row_norms_products(space, comps, seq, ws.sigmas, masks,
                              [fv.mask is not None for fv in vectors])
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        sums = (space.leaf_probs * ws.v * np.abs(maximal) ** p).sum(-1)
        lhs = [float(s ** (1.0 / p)) for s in sums]
    return [0.0 if r <= 0.0 else l / r for l, r in zip(lhs, rhs)]


def estimate_best_constant(
    inequality_id: str, ws: WeightSystem, trials: int, seed: int
) -> float:
    """Seeded lower bound for the best constant of one inequality.

    Trials draw log-uniform component vectors in [1e-3, 1e3]; trial 0 is
    the all-ones vector, trial 1 a single-atom indicator, trial 2 the
    canonical extremal for the inequality (the dual densities for the
    testing and weak forms, the indicator of a testing-optimal support for
    the strong form).  For "sp-test" the trials are stopping-time supports
    instead.  The "strong" trials run as one (trials, leaves) stack
    (_strong_ratios), bit for bit the per-trial evaluation.  Deterministic
    for a fixed seed.
    """
    if inequality_id not in _CONSTANT_IDS:
        raise ValueError(f"unknown inequality id {inequality_id!r}; use one of {_CONSTANT_IDS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if inequality_id == "strong":
        return float(np.max(_strong_ratios(ws, trials, seed)))  # a NaN ratio propagates
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    m = seq.head_len
    ratios = []
    for trial in range(trials):
        if inequality_id == "sp-test":
            rng = np.random.default_rng([seed, trial])
            if trial == 0:
                support = np.ones(space.n_leaves, dtype=bool)
            elif trial == 1:
                support = np.zeros(space.n_leaves, dtype=bool)
                support[space.atom_slice(min(1, space.depth), 0)] = True
            else:
                support = rng.random(space.n_leaves) < 0.5
                if not support.any():
                    support[int(rng.integers(space.n_leaves))] = True
            ratios.append(sp_support_ratio(ws, support))
            continue
        if trial != 2:
            fvec = trial_vector(space, m, seed, trial, 1e3)
        else:
            fvec = FunctionVector(tuple(ws.sigma_at(i) for i in range(m)), None)
        if inequality_id == "testing":
            lhs, rhs = _power(snell_testing_sup(ws, fvec), rp), _testing_parts(ws, fvec)[1]
        else:  # a fresh vector each trial: the reward of _testing_parts is not needed
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = function_norms_product(space, fvec, seq, ws.active_weights)
            lhs = weak_lp_norm(space, gen_doob_maximal(space, fvec, seq), p, ws.v)
        ratios.append(0.0 if rhs <= 0.0 else lhs / rhs)
    return float(np.max(ratios))  # a NaN ratio propagates
