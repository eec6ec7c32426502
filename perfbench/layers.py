"""Per-layer metrics of a traced run, derived from its spans.

PER_LAYER is the fixed list BENCHMARK.json declares; a traced run prints
every one of them on every workload, with 0 where the workload never
reaches that layer.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import span_totals, us_per_call_by_leaves

SIZES = (9, 256, 4096)
BY_SIZE = ("filtration.cond_exp_matrix", "holder.level_products", "theorems.sawyer_decomposition")

# Named per-layer metrics, each with the end-to-end metric and workload it
# should move (README.md has the full mapping).
NAMED = [
    # ok_items_per_s and item_ms_tail on equiv_first
    ("theorems.verify_ap_to_testing.self_ms", "ms"),
    ("weights.ap_constant.calls", "count"),
    ("weights.ap_constant.calls_per_system", "count"),
    ("filtration.is_stopping_time.calls", "count"),
    ("filtration.cond_exp.calls", "count"),
    # ok_items_per_s on equiv_second
    ("weights.sp_support_ratio.calls", "count"),
    ("weights.sp_support_ratio.us_per_call", "us"),
    ("weights.rh_support_ratio.calls", "count"),
    ("weights.rh_support_ratio.us_per_call", "us"),
    ("weights.support_family.items", "count"),
    ("maximal.weighted_measure.calls", "count"),
    # ok_items_per_s on cli_wide
    *[(f"{name}.us_per_call.l{n}", "us") for name in BY_SIZE for n in SIZES],
    ("weights.support_dedup_ratio", "ratio"),
    # fail_ratio and ok_items_per_s on cli_wide
    ("filtration.sample_stopping_time.failed", "count"),
    ("cli.report_bytes", "bytes"),
    # ok_items_per_s on scalar_suite
    ("report.check_inequality.self_ms", "ms"),
    ("scalar.exp_jensen_check.us_per_call", "us"),
    ("scalar.weighted_am_gm.us_per_call", "us"),
    ("scalar.young_check.us_per_call", "us"),
    ("exponents.conjugate_product.us_per_call", "us"),
    # the traced run itself
    ("trace.ok_items_per_s.untraced", "1/s"),
    ("trace.ok_items_per_s.traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.items", "count"),
    ("fail_ratio", "ratio"),
]

# The public functions with the most traced time over the four workloads
# at the seed commit, scalar kernels included; each gets calls, total_ms
# and self_ms.
TOP_FUNCTIONS = (
    "weights.sp_support_ratio", "theorems.verify_ap_to_testing", "holder.level_products",
    "cli.main", "theorems.estimate_best_constant", "filtration.cond_exp_matrix", "cli.run",
    "weights.sp_constant_argmax", "filtration.cond_exp", "weights.sp_constant",
    "weights.support_family", "exponents.conjugate_product", "filtration.sample_stopping_time",
    "weights.ap_constant", "weights.rh_constant", "maximal.weighted_measure",
    "weights.rh_support_ratio", "holder.function_norms_product", "filtration.is_stopping_time",
    "theorems.verify_weak_to_testing", "holder.lp_norm", "theorems.verify_testing_to_ap",
    "filtration.as_leaf_mask", "theorems.sawyer_decomposition", "scalar.young_check",
    "scalar.make_weighted_pair", "theorems.verify_sp_to_strong", "report.check_inequality",
    "maximal.gen_doob_maximal", "exponents.make_exponent_sequence",
    "theorems.verify_testing_to_weak", "scalar.exp_jensen_check", "scalar.weighted_am_gm",
    "weights.make_weight_system",
)
_STATS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))
PER_LAYER = NAMED + [
    (f"{fn}.{stat}", unit)
    for fn in TOP_FUNCTIONS
    for stat, unit in _STATS
    if (f"{fn}.{stat}", unit) not in NAMED
]


def all_layer_metrics(tracer, workload, item_leaves, rates, tally) -> dict:
    """Every per-layer metric the run can give, by name."""
    arrays = tracer.arrays()
    totals = span_totals(
        arrays["name_id"], arrays["parent"], arrays["start"], arrays["end"],
        arrays["raised"], len(tracer.names),
    )
    traced_items = int(np.unique(arrays["item"][arrays["item"] >= 0]).size)
    out = {}
    for i, name in enumerate(tracer.names):
        calls = int(totals["calls"][i])
        out[f"{name}.calls"] = calls
        out[f"{name}.total_ms"] = totals["total_s"][i] * 1e3
        out[f"{name}.self_ms"] = totals["self_s"][i] * 1e3
        out[f"{name}.us_per_call"] = totals["total_s"][i] * 1e6 / calls if calls else 0.0
        out[f"{name}.failed"] = int(totals["failed"][i])
    leaves = np.asarray(item_leaves)
    for name in BY_SIZE:
        for n in SIZES:
            out[f"{name}.us_per_call.l{n}"] = us_per_call_by_leaves(arrays, leaves, name, n)
    out["weights.ap_constant.calls_per_system"] = (
        out["weights.ap_constant.calls"] / traced_items if traced_items else 0.0
    )
    out["weights.support_family.items"] = tracer.supports_returned
    out["weights.support_dedup_ratio"] = (
        tracer.sampled_supports / tracer.sampled_times if tracer.sampled_times else 0.0
    )
    sizes = workload.report_bytes
    out["cli.report_bytes"] = statistics.mean(sizes) if sizes else 0.0
    untraced = statistics.median(rates[False])
    traced = statistics.median(rates[True])
    out["trace.ok_items_per_s.untraced"] = untraced
    out["trace.ok_items_per_s.traced"] = traced
    out["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0 if traced else 0.0
    out["trace.spans"] = tracer.n_spans
    out["trace.items"] = traced_items
    out["fail_ratio"] = tally.fail_ratio
    return out


def layer_metrics(tracer, workload, item_leaves, rates, tally) -> dict:
    found = all_layer_metrics(tracer, workload, item_leaves, rates, tally)
    return {name: {"value": float(found[name]), "unit": unit} for name, unit in PER_LAYER}
