"""Batch front door: config ingestion, seeded instance generation, suite
execution, machine-readable reports.

Every subcommand reads its inputs from --config JSON and/or inline flags,
runs the corresponding checks, and writes a JSON report file (always) plus
a CSV summary when --format json+csv is selected.  Exit status: 0 when
every emitted report passes, 1 when at least one inequality check failed,
2 on malformed input or an enumeration-cap error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .exponents import conjugate_product, sequence_from_json
from .filtration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    TreeSpace,
    count_stopping_times,
    enumerate_stopping_times,
    space_from_json,
)
from .holder import (
    FunctionVector,
    function_norms_product,
    function_vector_from_json,
    holder_conditional_check,
    holder_integral_check,
    trial_vector,
)
from .report import VerificationReport, check_inequality
from .theorems import (
    estimate_best_constant,
    sawyer_decomposition,
    sawyer_trace_invariants,
    snell_testing_sup,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from .weights import (
    WeightSystem,
    ap_constant,
    make_weight_system,
    rh_constant,
    sp_constant,
)

DEFAULT_SPREAD = 1e3
DEFAULT_TRIALS = 3


@dataclass
class RunConfig:
    command: str
    space: dict | None = None
    seq: dict | None = None
    weights: dict | None = None
    functions: object = None
    family: object = "all"
    tol: float = 1e-12
    seed: int = 0
    out: str = "martbench_report.json"
    fmt: str = "json"
    level: int | None = None
    inequality: str = "testing"
    trials: int = DEFAULT_TRIALS
    kind: str = "functions"
    spread: float = DEFAULT_SPREAD
    count: int = 4
    expect_at_most: float | None = None
    extras: dict = field(default_factory=dict)


def generate(kind: str, space: TreeSpace, seed: int, spread: float, count: int = 4,
             inject_extremals: bool = True) -> list[list[float]]:
    """Deterministic seeded leaf vectors, log-uniform in [1/spread, spread].

    With inject_extremals, index 0 is the all-ones vector and index 1 a
    single-atom indicator (for weights, which must stay positive, the
    indicator becomes a bump of height `spread` on the first atom).
    """
    if kind not in ("weights", "functions"):
        raise ValueError(f"unknown generate kind {kind!r}")
    if not spread >= 1.0:
        raise ValueError("spread must be >= 1")
    rng = np.random.default_rng(seed)
    items = []
    for index in range(count):
        if inject_extremals and index == 0:
            vec = np.ones(space.n_leaves)
        elif inject_extremals and index == 1:
            atom = space.atom_slice(min(1, space.depth), 0)
            if kind == "functions":
                vec = np.zeros(space.n_leaves)
                vec[atom] = 1.0
            else:
                vec = np.ones(space.n_leaves)
                vec[atom] = spread
        else:
            vec = np.exp(
                rng.uniform(-math.log(spread), math.log(spread), space.n_leaves)
            )
        items.append([float(x) for x in vec])
    return items


def _build_weight_system(config: RunConfig, space: TreeSpace, seq) -> WeightSystem:
    spec = config.weights or {}
    if "generator" in spec:
        gen = spec["generator"]
        n_active = int(gen.get("n_active", min(2, seq.head_len)))
        items = generate(
            "weights",
            space,
            int(gen.get("seed", config.seed)),
            float(gen.get("spread", config.spread)),
            count=n_active + 1,
            inject_extremals=False,
        )
        return make_weight_system(space, seq, items[:n_active], items[n_active])
    return make_weight_system(space, seq, spec.get("weights", []), spec["v"])


def _function_vectors(config: RunConfig, space: TreeSpace, seq) -> list[FunctionVector]:
    spec = config.functions
    if spec is None:
        spec = {"generator": {}}
    if isinstance(spec, dict) and "generator" in spec:
        gen = spec["generator"]
        seed = int(gen.get("seed", config.seed))
        trials = int(gen.get("trials", config.trials))
        spread = float(gen.get("spread", config.spread))
        return [trial_vector(space, seq.head_len, seed, t, spread) for t in range(trials)]
    if isinstance(spec, dict):
        spec = [spec]
    return [function_vector_from_json(space, item) for item in spec]


def _aggregate_testing(ws: WeightSystem, fvec: FunctionVector) -> tuple[VerificationReport, float]:
    """Testing check against the exact supremum over all stopping times;
    reports the worst side and returns the observed testing constant for
    this vector."""
    worst_lhs = snell_testing_sup(ws, fvec) ** ws.seq.aggregate_reciprocal
    rhs = function_norms_product(ws.space, fvec, ws.seq, ws.active_weights)
    merged = check_inequality(
        "ap-to-testing",
        worst_lhs,
        rhs,
        constant=ap_constant(ws),
        metadata={"stopping_sup": "exact", "space": ws.space.digest()},
    )
    observed = worst_lhs / rhs if rhs > 0.0 else 0.0
    return merged, observed


def _cmd_check_holder(config: RunConfig, space, seq) -> tuple[list, dict]:
    reports = [
        holder_integral_check(space, fv, seq, tolerance=config.tol)
        for fv in _function_vectors(config, space, seq)
    ]
    return reports, {}


def _cmd_check_conditional_holder(config: RunConfig, space, seq) -> tuple[list, dict]:
    levels = [config.level] if config.level is not None else list(space.levels)
    reports = []
    for fv in _function_vectors(config, space, seq):
        for n in levels:
            reports.append(holder_conditional_check(space, fv, seq, n, tolerance=config.tol))
    return reports, {}


def _cmd_weights_constants(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    constants = {
        "ap": ap_constant(ws),
        "rh": rh_constant(ws, config.family),
        "sp": sp_constant(ws, config.family),
    }
    return [], {"constants": constants, "family": config.family}


def _cmd_verify_ap(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    total = count_stopping_times(space)
    if total > ENUMERATION_CAP:
        # past the enumeration cap verify-ap stays an input error (exit 2),
        # although the exact supremum itself enumerates nothing
        raise EnumerationCapError(f"{total} stopping times exceed the cap {ENUMERATION_CAP}")
    c_a = ap_constant(ws)
    reports = []
    for fvec in _function_vectors(config, space, seq):
        merged, observed = _aggregate_testing(ws, fvec)
        reports.append(merged)
        reports.append(verify_testing_to_weak(ws, fvec, observed, tolerance=config.tol))
        reports.append(verify_weak_to_testing(ws, fvec, c_a, tolerance=config.tol))
    reports.append(verify_testing_to_ap(ws, config.family, tolerance=config.tol))
    return reports, {"ap_constant": c_a}


def _cmd_verify_sp(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    c_s = sp_constant(ws, config.family)
    c_rh = rh_constant(ws, config.family)
    rp = seq.aggregate_reciprocal
    c_final = 4.0 * c_s * c_rh**rp * conjugate_product(seq).hi
    reports = []
    for gvec in _function_vectors(config, space, seq):
        reports.append(verify_sp_to_strong(ws, gvec, c_s, c_rh, tolerance=config.tol))
    estimate = estimate_best_constant("strong", ws, config.trials, config.seed)
    reports.append(
        check_inequality(
            "strong-estimate-vs-bound",
            estimate,
            c_final,
            tolerance=config.tol,
            metadata={"trials": config.trials, "seed": config.seed},
        )
    )
    return reports, {"c_s": c_s, "c_rh": c_rh, "c_final": c_final}


def _cmd_sawyer_trace(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    gvec = _function_vectors(config, space, seq)[0]
    trace = sawyer_decomposition(ws, gvec)
    invariants = sawyer_trace_invariants(ws, trace)
    report = check_inequality(
        "sawyer-invariants",
        0.0 if all(invariants.values()) else 1.0,
        0.0,
        metadata=invariants,
    )
    return [report], {"trace": trace.to_json()}


def _cmd_enumerate(config: RunConfig, space, seq) -> tuple[list, dict]:
    count = count_stopping_times(space)
    times = list(enumerate_stopping_times(space))
    payload = {"count": count, "enumerated": len(times)}
    if len(times) <= 1000:
        payload["times"] = [tau.to_json() for tau in times]
    return [], payload


def _cmd_conjugate_product(config: RunConfig, space, seq) -> tuple[list, dict]:
    rel_tol = config.tol if config.extras.get("tol_given") else 1e-9
    interval = conjugate_product(seq, rel_tol=max(rel_tol, 1e-12))
    return [], {"interval": interval.to_json(), "rel_width": interval.rel_width}


def _cmd_estimate(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    estimate = estimate_best_constant(config.inequality, ws, config.trials, config.seed)
    payload = {"inequality": config.inequality, "estimate": estimate, "kind": "lower-bound"}
    reports = []
    if config.expect_at_most is not None:
        reports.append(
            check_inequality(
                "estimate-vs-expected",
                estimate,
                config.expect_at_most,
                tolerance=config.tol,
                metadata={"inequality": config.inequality},
            )
        )
    return reports, payload


def _cmd_generate(config: RunConfig, space, seq) -> tuple[list, dict]:
    items = generate(config.kind, space, config.seed, config.spread, config.count)
    return [], {
        "kind": config.kind,
        "seed": config.seed,
        "spread": config.spread,
        "items": items,
    }


_NEEDS_SEQ = {
    "check-holder",
    "check-conditional-holder",
    "weights-constants",
    "verify-ap",
    "verify-sp",
    "sawyer-trace",
    "conjugate-product",
    "estimate-constant",
}

_HANDLERS = {
    "check-holder": _cmd_check_holder,
    "check-conditional-holder": _cmd_check_conditional_holder,
    "weights-constants": _cmd_weights_constants,
    "verify-ap": _cmd_verify_ap,
    "verify-sp": _cmd_verify_sp,
    "sawyer-trace": _cmd_sawyer_trace,
    "enumerate-stopping-times": _cmd_enumerate,
    "conjugate-product": _cmd_conjugate_product,
    "estimate-constant": _cmd_estimate,
    "generate": _cmd_generate,
}


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_outputs(config: RunConfig, reports: list, payload: dict) -> None:
    doc = {
        "command": config.command,
        "reports": [r.to_json() for r in reports],
        "summary": {
            "n_reports": len(reports),
            "n_failed": sum(not r.passed for r in reports),
        },
        **payload,
    }
    _atomic_write(config.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if config.fmt == "json+csv":
        rows = [
            ["report", r.inequality, r.lhs, r.rhs, r.constant, r.slack, r.passed]
            for r in reports
        ]
        for name, value in payload.get("constants", {}).items():
            rows.append(["constant", name, "", "", value, "", ""])
        csv_path = os.path.splitext(config.out)[0] + ".csv"
        tmp = f"{csv_path}.tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "name", "lhs", "rhs", "constant", "slack", "pass"])
            writer.writerows(rows)
        os.replace(tmp, csv_path)


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if config.command not in _HANDLERS:
        raise ValueError(f"unknown command {config.command!r}")
    space = space_from_json(config.space) if config.space else None
    seq = sequence_from_json(config.seq) if config.seq else None
    if config.command != "conjugate-product" and space is None:
        raise ValueError("a space spec is required (--space or config)")
    if config.command in _NEEDS_SEQ and seq is None:
        raise ValueError("an exponent spec is required (--seq or config)")
    started = time.monotonic()
    reports, payload = _HANDLERS[config.command](config, space, seq)
    payload.setdefault("elapsed_seconds", time.monotonic() - started)
    _write_outputs(config, reports, payload)
    failed = [r for r in reports if not r.passed]
    print(
        f"{config.command}: {len(reports)} report(s), {len(failed)} failed -> {config.out}"
    )
    return 1 if failed else 0


def _parse_family(text: str):
    if text == "all":
        return "all"
    if text.startswith("sample:"):
        return {"count": int(text.split(":", 1)[1]), "seed": 0}
    raise ValueError(f"bad family spec {text!r}; use 'all' or 'sample:COUNT'")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    config = RunConfig(command=args.command)
    config.space = json.loads(args.space) if args.space else base.get("space")
    config.seq = json.loads(args.seq) if args.seq else base.get("seq")
    config.weights = json.loads(args.weights) if args.weights else base.get("weights")
    config.functions = (
        json.loads(args.functions) if args.functions else base.get("functions")
    )
    family = args.family or base.get("family", "all")
    config.family = _parse_family(family) if isinstance(family, str) else family
    config.tol = args.tol if args.tol is not None else float(base.get("tol", 1e-12))
    config.extras["tol_given"] = args.tol is not None or "tol" in base
    config.seed = args.seed if args.seed is not None else int(base.get("seed", 0))
    config.out = args.out or base.get("out", "martbench_report.json")
    config.fmt = args.format or base.get("format", "json")
    config.level = args.level if args.level is not None else base.get("level")
    config.inequality = args.inequality or base.get("inequality", "testing")
    config.trials = args.trials if args.trials is not None else int(base.get("trials", DEFAULT_TRIALS))
    config.kind = args.kind or base.get("kind", "functions")
    config.spread = args.spread if args.spread is not None else float(base.get("spread", DEFAULT_SPREAD))
    config.count = args.count if args.count is not None else int(base.get("count", 4))
    config.expect_at_most = (
        args.expect_at_most
        if args.expect_at_most is not None
        else base.get("expect_at_most")
    )
    if config.seed < 0 or config.seed >= 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martbench",
        description="verification workbench for weighted martingale inequalities",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--space", help='inline space JSON, e.g. \'{"depth":2,"branching":2,"leaf_probs":"uniform"}\'')
    parser.add_argument("--seq", help='inline exponent JSON, e.g. \'{"head":[2],"tail_mass":0.5,"tail_ratio":0.5}\'')
    parser.add_argument("--weights", help="inline weight-system JSON")
    parser.add_argument("--functions", help="inline function-vector JSON (object or list)")
    parser.add_argument("--family", help="stopping-time family: all | sample:COUNT")
    parser.add_argument("--tol", type=float, help="relative verdict tolerance")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--out", help="output JSON path")
    parser.add_argument("--format", choices=["json", "json+csv"], help="output format")
    parser.add_argument("--level", type=int, help="filtration level (conditional check)")
    parser.add_argument("--inequality", choices=["testing", "weak", "strong", "sp-test"])
    parser.add_argument("--trials", type=int, help="number of seeded trials")
    parser.add_argument("--kind", choices=["weights", "functions"], help="generate kind")
    parser.add_argument("--spread", type=float, help="log-uniform spread")
    parser.add_argument("--count", type=int, help="number of generated vectors")
    parser.add_argument(
        "--expect-at-most",
        dest="expect_at_most",
        type=float,
        help="fail (exit 1) when the estimated constant exceeds this bound",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except (ValueError, KeyError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
