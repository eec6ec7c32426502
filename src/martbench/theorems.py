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

import math
from dataclasses import dataclass

import numpy as np

from .exponents import conjugate_product
from .filtration import (
    StoppingTime,
    TreeSpace,
    cond_exp_matrix,
    first_passage_time,
    is_stopped_measurable,
    is_stopping_time,
    stopped,
)
from .holder import (
    FunctionVector,
    function_norms_product,
    level_products,
    lp_norm,
    trial_vector,
)
from .maximal import gen_doob_maximal, level_set_stopping_time, weak_lp_norm, weighted_measure
from .report import ABS_FLOOR, REL_TOL, VerificationReport, check_inequality
from .weights import (
    WeightSystem,
    ap_constant,
    ap_level_values,
    necessity_family_ap,
    rh_constant,
    sp_constant_argmax,
    sp_support_ratio,
)


def band_index(values: np.ndarray) -> np.ndarray:
    """The integer k with 2**k < y <= 2**(k+1), exact via frexp."""
    mant, expo = np.frexp(np.asarray(values, dtype=float))
    return (expo - 1 - (mant == 0.5)).astype(np.int64)


def _norms_product(ws: WeightSystem, fvec: FunctionVector) -> float:
    return function_norms_product(ws.space, fvec, ws.seq, ws.active_weights)


def _strong_rhs(ws: WeightSystem, gvec: FunctionVector) -> float:
    """prod_i ||g_i||_{L^{p_i}(sigma_i)} with exact masked-tail handling."""
    sigmas = [ws.sigma_at(i) for i in range(max(gvec.n_active, ws.n_active))]
    return function_norms_product(ws.space, gvec, ws.seq, sigmas)


def _testing_lhs_pth(ws: WeightSystem, rows: np.ndarray, tau: StoppingTime, p: float) -> float:
    """integral over {tau finite} of (prod E_tau(f_i))**p v dmu."""
    contrib = ws.space.leaf_probs * ws.v * stopped(ws.space, rows, tau, 0.0) ** p
    return float(contrib[tau.finite].sum())


def verify_ap_to_testing(
    ws: WeightSystem,
    fvec: FunctionVector,
    tau: StoppingTime,
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Testing inequality with the joint-condition constant:
    (int_{tau<inf} (prod E_tau(f_i))**p v dmu)**(1/p)
        <= C_A * prod ||f_i||_{L^{p_i}(omega_i)}."""
    if not is_stopping_time(ws.space, tau):
        raise ValueError("tau is not an adapted stopping time")
    rp = ws.seq.aggregate_reciprocal
    p = 1.0 / rp
    rows = level_products(ws.space, fvec, ws.seq)
    lhs = _testing_lhs_pth(ws, rows, tau, p) ** rp
    rhs = _norms_product(ws, fvec)
    return check_inequality(
        "ap-to-testing",
        lhs,
        rhs,
        constant=ap_constant(ws),
        tolerance=tolerance,
        metadata={"space": ws.space.digest(), "finite_leaves": int(tau.finite.sum())},
    )


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
    """
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    maximal = gen_doob_maximal(space, fvec, seq)
    rows = level_products(space, fvec, seq)
    rhs = _norms_product(ws, fvec)
    all_ok = True
    thresholds = np.unique(maximal[maximal > 0.0])
    for t in thresholds:
        t = float(t)
        tau = level_set_stopping_time(space, fvec, seq, np.nextafter(t, 0.0))
        if not np.array_equal(tau.support(), maximal >= t):
            all_ok = False
            continue
        weak_t = t * weighted_measure(space, tau.support(), ws.v) ** rp
        mid = _testing_lhs_pth(ws, rows, tau, p) ** rp
        chain = mid * (1.0 + tolerance) + ABS_FLOOR
        bound = c_test * rhs
        if weak_t > chain or weak_t > bound + tolerance * abs(bound) + ABS_FLOOR:
            all_ok = False
    report = check_inequality(
        "testing-to-weak",
        weak_lp_norm(space, maximal, p, ws.v),
        rhs,
        constant=c_test,
        tolerance=tolerance,
        metadata={"n_thresholds": len(thresholds), "space": space.digest()},
    )
    report.passed = report.passed and all_ok
    return report


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
    The left side is the exact supremum over all stopping times
    (snell_testing_sup); the slice partitions are reported for inspection.
    """
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    rows = level_products(space, fvec, seq)
    rhs_pth = _norms_product(ws, fvec) ** p
    c_prime = 2.0**p * c_weak**p

    all_ok = True
    partitions = {}
    small = space.n_leaves <= 64
    for n in space.levels:
        vals = rows[n]
        pos = vals > 0.0
        if not pos.any():
            continue
        level_bands = {}
        for k in np.unique(band_index(vals[pos])):
            k = int(k)
            band = pos & (vals > 2.0**k) & (vals <= 2.0 ** (k + 1))
            if not band.any():
                continue
            sliced = FunctionVector(
                fvec.active, band if fvec.mask is None else (fvec.mask & band)
            )
            lhs_slice = (2.0**k) ** p * weighted_measure(space, band, ws.v)
            rhs_slice = c_weak**p * function_norms_product(
                space, sliced, seq, ws.active_weights
            ) ** p
            if lhs_slice > rhs_slice + tolerance * abs(rhs_slice) + ABS_FLOOR:
                all_ok = False
            level_bands[k] = (
                np.flatnonzero(band).tolist() if small else int(band.sum())
            )
        partitions[n] = level_bands

    report = check_inequality(
        "weak-to-testing",
        snell_testing_sup(ws, fvec),
        rhs_pth,
        constant=c_prime,
        tolerance=tolerance,
        metadata={
            "bands_per_level": partitions,
            "stopping_sup": "exact",
            "space": space.digest(),
        },
    )
    report.passed = report.passed and all_ok
    return report


def verify_testing_to_ap(
    ws: WeightSystem,
    family="all",
    tolerance: float = REL_TOL,
) -> VerificationReport:
    """Recover the joint condition from the testing inequality.

    For every level n and level-n atom B, feeding the extremal family
    sigma_i chi_B (tail masked by B) into the testing inequality with the
    constant stopping time n, then applying the reverse-Hoelder bound and
    the conditional product inequality, yields on B

        E_n(v)**(1/p) prod E_n(sigma_i)**(1/p'_i)
            <= ratio(B) * C_RH**(1/p)

    where ratio(B) is the testing ratio of that instance.  The report
    compares the largest recovered value (the joint constant itself)
    against the observed testing constant times C_RH**(1/p).
    """
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    c_rh = rh_constant(ws, family)
    scale = c_rh**rp
    c_test_observed = 0.0
    recovered_max = 0.0
    all_ok = True
    ap_rows = ap_level_values(ws)
    for n in space.levels:
        size = space.atom_size(n)
        for j in range(space.n_atoms(n)):
            mask = np.zeros(space.n_leaves, dtype=bool)
            mask[space.atom_slice(n, j)] = True
            fv = necessity_family_ap(ws, n, mask)
            rows = level_products(space, fv, seq)
            lhs = float(np.sum(space.leaf_probs * ws.v * rows[n] ** p)) ** rp
            rhs = _norms_product(ws, fv)
            ratio = lhs / rhs
            recovered = float(ap_rows[n, j * size])
            bound = ratio * scale
            if recovered > bound + tolerance * abs(bound) + ABS_FLOOR:
                all_ok = False
            c_test_observed = max(c_test_observed, ratio)
            recovered_max = max(recovered_max, recovered)
    report = check_inequality(
        "testing-to-ap",
        recovered_max,
        c_test_observed * scale,
        tolerance=tolerance,
        metadata={
            "c_test_observed": c_test_observed,
            "c_rh": c_rh,
            "ap_constant": ap_constant(ws),
            "space": space.digest(),
        },
    )
    report.passed = report.passed and all_ok
    return report


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
        return (self.maximal_values > 2.0**k) & (self.maximal_values <= 2.0 ** (k + 1))

    def weighted_total(self) -> float:
        """sum over cells of T * theta."""
        return math.fsum(c.t_value * c.theta for c in self.cells.values())

    def to_json(self) -> dict:
        return {
            "k_range": None if self.is_empty else [self.k_lo, self.k_hi],
            "cells": [
                {
                    "k": k,
                    "j": j,
                    "a_leaves": np.flatnonzero(c.a_mask).tolist(),
                    "b_leaves": np.flatnonzero(c.b_mask).tolist(),
                    "theta": c.theta,
                    "t": c.t_value,
                }
                for (k, j), c in sorted(self.cells.items())
            ],
            "taus": {str(k): tau.to_json() for k, tau in sorted(self.taus.items())},
            "lambda_sets": [
                {
                    "lambda": lam,
                    "cells": [list(key) for key in keys],
                    "g_leaves": np.flatnonzero(g).tolist(),
                }
                for lam, keys, g in self.lambda_sets
            ],
        }


def _component_slots(ws: WeightSystem, gvec: FunctionVector) -> list:
    """(g_i, sigma_i) pairs over the occupied head slots, defaults 1."""
    ones = np.ones(ws.space.n_leaves)
    n_slots = max(gvec.n_active, ws.n_active)
    if n_slots > ws.seq.head_len:
        raise ValueError(
            f"{n_slots} components exceed exponent head length {ws.seq.head_len}"
        )
    return [
        (
            gvec.active[i] if i < gvec.n_active else ones,
            ws.sigmas[i] if i < ws.n_active else ones,
        )
        for i in range(n_slots)
    ]


def sawyer_decomposition(ws: WeightSystem, gvec: FunctionVector) -> SawyerTrace:
    """Dyadic decomposition of the maximal function of (g_i sigma_i).

    tau_k is the first passage of the product of conditional expectations
    above 2**k; the band {2**k < maximal <= 2**(k+1)} equals
    {tau_k finite, tau_{k+1} infinite} and is graded into cells by the
    dyadic size of the stopped density product.
    """
    if gvec.mask is not None:
        raise ValueError("masked vectors are not supported in the decomposition")
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    slots = _component_slots(ws, gvec)
    ufvec = FunctionVector(tuple(g * s for g, s in slots), None)
    rows = level_products(space, ufvec, seq)
    maximal = rows.max(axis=0)

    if not np.any(maximal > 0.0):
        return SawyerTrace(None, None, {}, {}, maximal, [])

    k_lo = int(band_index(maximal[maximal > 0.0].min()))
    k_hi = int(band_index(maximal.max()))
    taus = {
        k: first_passage_time(space, rows, 2.0**k) for k in range(k_lo, k_hi + 2)
    }

    sigma_mats = [cond_exp_matrix(space, s) for _, s in slots]
    weighted_mats = [cond_exp_matrix(space, g, s) for g, s in slots]

    cells = {}
    for k in range(k_lo, k_hi + 1):
        tau = taus[k]
        fin = tau.finite
        if not fin.any():
            continue
        band_mask = fin & ~taus[k + 1].finite
        density = np.ones(space.n_leaves)
        for mat, (_, s) in zip(sigma_mats, slots):
            density = density * stopped(space, mat, tau, s)
        ratio_g = np.ones(space.n_leaves)
        for mat, (g, _) in zip(weighted_mats, slots):
            ratio_g = ratio_g * stopped(space, mat, tau, g)
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


def sawyer_trace_invariants(ws: WeightSystem, trace: SawyerTrace) -> dict:
    """Exact structural checks of a decomposition trace: the band cells
    are disjoint, cover their bands, sit inside their stopped-measurable
    envelopes, the envelopes belong to the stopped sigma-fields, and the
    cell measure is nonnegative."""
    space = ws.space
    if trace.is_empty:
        return {
            "b_disjoint": True,
            "bands_covered": True,
            "b_inside_a": True,
            "a_measurable": True,
            "theta_nonnegative": True,
        }
    b_total = np.zeros(space.n_leaves, dtype=np.int64)
    for cell in trace.cells.values():
        b_total += cell.b_mask
    disjoint = bool(np.all(b_total <= 1))
    covered = True
    for k in range(trace.k_lo, trace.k_hi + 1):
        union = np.zeros(space.n_leaves, dtype=bool)
        for (kk, _), cell in trace.cells.items():
            if kk == k:
                union |= cell.b_mask
        covered = covered and bool(np.array_equal(union, trace.band(k)))
    inside = all(
        bool(np.all(cell.b_mask <= cell.a_mask)) for cell in trace.cells.values()
    )
    measurable = all(
        is_stopped_measurable(space, trace.taus[k], cell.a_mask)
        for (k, _), cell in trace.cells.items()
    )
    theta_ok = all(cell.theta >= 0.0 for cell in trace.cells.values())
    return {
        "b_disjoint": disjoint,
        "bands_covered": covered,
        "b_inside_a": inside,
        "a_measurable": measurable,
        "theta_nonnegative": theta_ok,
    }


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
    lhs_pth = float(np.sum(space.leaf_probs * ws.v * maximal**p))
    trace_rhs = 4.0**p * trace.weighted_total()
    trace_ok = lhs_pth <= trace_rhs + tolerance * abs(trace_rhs) + ABS_FLOOR

    conj_hi = conjugate_product(seq).hi
    c_final = 4.0 * c_s * c_rh**rp * conj_hi
    lhs = lhs_pth**rp
    rhs = _strong_rhs(ws, gvec)

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
            "space": space.digest(),
        },
    )
    report.passed = report.passed and bool(trace_ok)
    return report


def snell_testing_sup(ws: WeightSystem, fvec: FunctionVector) -> float:
    """sup over all stopping times of int_{tau<inf} (prod E_tau f_i)**p v,
    exact by backward induction on the tree (the Snell envelope of the
    stopping reward), in O(leaves * depth) with no enumeration."""
    space, seq = ws.space, ws.seq
    p = 1.0 / seq.aggregate_reciprocal
    rows = level_products(space, fvec, seq)
    reward = rows**p * ws.v * space.leaf_probs
    value = reward[space.depth]
    for n in range(space.depth - 1, -1, -1):
        stop = space.atom_sums(reward[n], n)
        cont = value.reshape(space.n_atoms(n), space.branching).sum(axis=1)
        value = np.maximum(stop, cont)
    return float(value[0])


_CONSTANT_IDS = ("testing", "weak", "strong", "sp-test")


def estimate_best_constant(
    inequality_id: str, ws: WeightSystem, trials: int, seed: int
) -> float:
    """Seeded lower bound for the best constant of one inequality.

    Trials draw log-uniform component vectors in [1e-3, 1e3]; trial 0 is
    the all-ones vector, trial 1 a single-atom indicator, trial 2 the
    canonical extremal for the inequality (the dual densities for the
    testing and weak forms, the indicator of a testing-optimal support for
    the strong form).  For "sp-test" the trials are stopping-time supports
    instead.  Deterministic for a fixed seed.
    """
    if inequality_id not in _CONSTANT_IDS:
        raise ValueError(f"unknown inequality id {inequality_id!r}; use one of {_CONSTANT_IDS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    p = 1.0 / rp
    m = seq.head_len

    def strong_ratio(gvec: FunctionVector) -> float:
        slots = _component_slots(ws, gvec)
        ufvec = FunctionVector(tuple(g * s for g, s in slots), gvec.mask)
        lhs = lp_norm(space, gen_doob_maximal(space, ufvec, seq), p, ws.v)
        rhs = _strong_rhs(ws, gvec)
        return lhs / rhs if rhs > 0.0 else 0.0

    def fvec_ratio(fvec: FunctionVector) -> float:
        if inequality_id == "strong":
            return strong_ratio(fvec)
        rhs = _norms_product(ws, fvec)
        if rhs <= 0.0:
            return 0.0
        if inequality_id == "testing":
            return snell_testing_sup(ws, fvec) ** rp / rhs
        maximal = gen_doob_maximal(space, fvec, seq)
        return weak_lp_norm(space, maximal, p, ws.v) / rhs

    best = 0.0
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
            best = max(best, sp_support_ratio(ws, support))
            continue
        if trial != 2:
            fvec = trial_vector(space, m, seed, trial, 1e3)
        elif inequality_id == "strong":
            # the testing family embeds via g_i = chi_F for every
            # component, tail included: a masked all-ones vector
            _, argmax = sp_constant_argmax(ws, _default_family(space))
            fvec = FunctionVector(
                tuple(np.ones(space.n_leaves) for _ in range(m)), argmax
            )
        else:
            fvec = FunctionVector(tuple(ws.sigma_at(i) for i in range(m)), None)
        best = max(best, fvec_ratio(fvec))
    return best


def _default_family(space: TreeSpace):
    if 2**space.n_leaves - 1 <= 4096:
        return "all"
    return {"count": 256, "seed": 0}
