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
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import secrets
import sys
import time
from dataclasses import field, make_dataclass

import numpy as np

from .exponents import conjugate_product, sequence_from_json
from .filtration import (
    ENUMERATION_CAP,
    EnumerationCapError,
    TreeSpace,
    _about,
    _leaf_runs,
    count_stopping_times,
    enumerate_stopping_times,
    space_from_json,
)
from .holder import (
    FunctionVector,
    function_vector_from_json,
    holder_conditional_check,
    holder_integral_check,
    trial_vector,
)
from .report import _power, check_inequality
from .theorems import (
    _CONSTANT_IDS,
    estimate_best_constant,
    sawyer_decomposition,
    sawyer_trace_invariants,
    verify_ap_to_testing,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from .weights import (
    WeightSystem,
    _sampled_key,
    ap_constant,
    make_weight_system,
    rh_constant,
    sp_constant,
)


def _json(value):
    """JSON text from a flag; a config-file value arrives already parsed."""
    return json.loads(value) if isinstance(value, str) else value


# the errors of a malformed spec, which _named gives the name of its source
_SPEC_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def _named(source: str, exc: Exception) -> ValueError:
    """A spec's error as one ValueError that names its flag or config key."""
    why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{source}: {why}")


@contextlib.contextmanager
def _naming(source: str):
    """Raise a spec's error as _named's ValueError."""
    try:
        yield
    except _SPEC_ERRORS as exc:
        raise _named(source, exc) from None


def _ranged(cast, low=-math.inf, high=math.inf):
    """A parser that casts its value exactly and requires low <= value < high;
    a float that int() would truncate (2.5) or overflow on (inf) fails."""
    def parse(value):
        try:
            x = cast(value)
        except OverflowError:  # int(inf), or float() of an integer past the float range
            x = math.nan
        if not low <= x < high or isinstance(value, float) and x != value:  # NaN fails
            raise ValueError(f"{value!r} must be {cast.__name__} in [{low}, {high})")
        return x
    return parse


def _one_of(*choices):
    def parse(value):
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value
    return parse


def _family(value):
    if isinstance(value, dict):
        _sampled_key(value)  # checked here, so that its error names the config key
    if isinstance(value, dict) or value == "all":
        return value
    if isinstance(value, str) and value.startswith("sample:"):
        return {"count": _ranged(int, 1)(value.split(":", 1)[1]), "seed": 0}
    raise ValueError(f"bad family spec {value!r}; use 'all' or 'sample:COUNT'")


# Every option once: (config-file key, parser, default, help).  The flag is
# --KEY with "_" written "-".  The same parser reads flag text and
# config-file values (and builds the space and seq, so that their errors name
# the flag); a flag overrides the config file, which overrides the default.
OPTIONS = (
    ("space", lambda value: space_from_json(_json(value)), None,
     'space JSON, e.g. \'{"depth":2,"branching":2,"leaf_probs":"uniform"}\''),
    ("seq", lambda value: sequence_from_json(_json(value)), None,
     'exponent JSON, e.g. \'{"head":[2],"tail_mass":0.5,"tail_ratio":0.5}\''),
    ("weights", _json, None, "weight-system JSON"),
    ("functions", _json, None, "function-vector JSON (object or list)"),
    ("family", _family, "all", "support family: all | sample:COUNT"),
    ("tol", _ranged(float, 0.0), 1e-12, "relative verdict tolerance, finite and >= 0"),
    ("seed", _ranged(int, 0, 2**64), 0, "seed, 0 <= SEED < 2**64"),
    ("out", str, "martbench_report.json", "output JSON path"),
    ("format", _one_of("json", "json+csv"), "json", "output format: json | json+csv"),
    ("level", _ranged(int, 0), None, "conditional-check level, >= 0 (all levels if unset)"),
    ("inequality", _one_of(*_CONSTANT_IDS), "testing", "inequality of estimate-constant"),
    ("trials", _ranged(int, 1), 3, "number of seeded trials, >= 1"),
    ("kind", _one_of("weights", "functions"), "functions", "generate kind: weights | functions"),
    ("spread", _ranged(float, 1.0), 1e3, "log-uniform spread, finite and >= 1"),
    ("count", _ranged(int, 1), 4, "number of generated vectors, >= 1"),
    ("expect_at_most", _ranged(float), None, "exit 1 when the estimated constant exceeds this"),
)

_PARSERS = {name: parse for name, parse, _, _ in OPTIONS}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)]
    + [(name, object, field(default=default)) for name, _, default, _ in OPTIONS]
    + [("tol_given", bool, field(default=False))],
)


def generate(kind: str, space: TreeSpace, seed: int, spread: float, count: int = 4,
             inject_extremals: bool = True) -> list[np.ndarray]:
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
        items.append(vec)
    return items


def _generator_keys(gen, defaults: dict, **parsers) -> list:
    """The keys of `defaults` read from a generator spec (a JSON object) with
    the option table's parsers or the given ones; a missing key keeps its default."""
    if not isinstance(gen, dict):
        raise ValueError(f"a generator spec must be a JSON object, not {gen!r}")
    values = []
    for key, default in defaults.items():
        try:
            values.append(parsers.get(key, _PARSERS.get(key))(gen[key]) if key in gen else default)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"generator key {key!r}: {exc}") from None
    return values


def _build_weight_system(config: RunConfig, space: TreeSpace, seq) -> WeightSystem:
    spec = {} if config.weights is None else config.weights
    with _naming("--weights"):
        if not isinstance(spec, dict):
            raise ValueError("must be a JSON object")
        if "generator" in spec:
            head = seq.head_len
            n_active, seed, spread = _generator_keys(
                spec["generator"], {"n_active": min(2, head), "seed": config.seed,
                                    "spread": config.spread}, n_active=_ranged(int, 0, head + 1))
            items = generate("weights", space, seed, spread, n_active + 1, inject_extremals=False)
            return make_weight_system(space, seq, items[:n_active], items[n_active])
        return make_weight_system(space, seq, spec.get("weights", []), spec["v"])


def _function_vectors(config: RunConfig, space: TreeSpace, seq,
                      one: bool = False) -> list[FunctionVector]:
    """The vectors of the --functions spec: each one it lists, or the generator's
    trials.  With `one`, for a command that reads a single vector, the
    generator draws trial 0 alone and a list of more than one is refused."""
    spec = config.functions
    if spec is None:
        spec = {"generator": {}}
    with _naming("--functions"):
        if isinstance(spec, dict) and "generator" in spec:
            seed, trials, spread = _generator_keys(spec["generator"], {
                "seed": config.seed, "trials": config.trials, "spread": config.spread})
            return [trial_vector(space, seq.head_len, seed, t, spread)
                    for t in range(1 if one else trials)]
        if isinstance(spec, dict):
            spec = [spec]
        if spec == []:
            raise ValueError(f"{config.command} needs {'one' if one else 'a'} vector, and the "
                             "spec gives none")
        if one and isinstance(spec, list) and len(spec) > 1:
            raise ValueError(f"{config.command} reads one vector, and the spec gives {len(spec)}")
        return [function_vector_from_json(space, item) for item in spec]


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
        # nothing below enumerates, but from binary depth 10 a sampled family overflows
        # in sample_stopping_time; the guard stays until that sampler is vectorised
        raise EnumerationCapError(
            f"{_about(total)} stopping times exceed the cap {ENUMERATION_CAP}")
    c_a = ap_constant(ws)
    reports = []
    for fvec in _function_vectors(config, space, seq):
        # the testing check against the exact supremum over all stopping times
        testing = verify_ap_to_testing(ws, fvec, tolerance=config.tol)
        observed = testing.lhs / testing.rhs if testing.rhs > 0.0 else 0.0
        reports += [testing,
                    verify_testing_to_weak(ws, fvec, observed, tolerance=config.tol),
                    verify_weak_to_testing(ws, fvec, c_a, tolerance=config.tol)]
    reports.append(verify_testing_to_ap(ws, config.family, tolerance=config.tol))
    return reports, {"ap_constant": c_a}


def _cmd_verify_sp(config: RunConfig, space, seq) -> tuple[list, dict]:
    ws = _build_weight_system(config, space, seq)
    c_s = sp_constant(ws, config.family)
    c_rh = rh_constant(ws, config.family)
    rp = seq.aggregate_reciprocal
    c_final = 4.0 * c_s * _power(c_rh, rp) * conjugate_product(seq).hi
    reports = []
    for gvec in _function_vectors(config, space, seq):
        with _naming("--functions"):  # a masked vector, or too many components
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
    gvecs = _function_vectors(config, space, seq, one=True)
    with _naming("--functions"):  # a masked vector, or too many components
        trace = sawyer_decomposition(ws, gvecs[0])
    invariants = sawyer_trace_invariants(ws, trace)
    report = check_inequality(
        "sawyer-invariants",
        0.0 if all(invariants.values()) else 1.0,
        0.0,
        metadata=invariants,
    )
    return [report], {"trace": trace.to_json()}


def _cmd_enumerate(config: RunConfig, space, seq) -> tuple[list, dict]:
    times = enumerate_stopping_times(space)
    first = list(itertools.islice(times, 1001))  # times are listed only up to 1000
    enumerated = len(first) + sum(1 for _ in times)
    payload = {"count": count_stopping_times(space), "enumerated": enumerated}
    if enumerated <= 1000:
        payload["times"] = _leaf_runs(times=[tau.values for tau in first])[1]
    return [], payload


def _cmd_conjugate_product(config: RunConfig, space, seq) -> tuple[list, dict]:
    rel_tol = config.tol if config.tol_given else 1e-9
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
        "items": [vec.tolist() for vec in items],
    }


# command: (handler, the specs it requires)
_COMMANDS = {
    "check-holder": (_cmd_check_holder, ("space", "seq")),
    "check-conditional-holder": (_cmd_check_conditional_holder, ("space", "seq")),
    "weights-constants": (_cmd_weights_constants, ("space", "seq")),
    "verify-ap": (_cmd_verify_ap, ("space", "seq")),
    "verify-sp": (_cmd_verify_sp, ("space", "seq")),
    "sawyer-trace": (_cmd_sawyer_trace, ("space", "seq")),
    "enumerate-stopping-times": (_cmd_enumerate, ("space",)),
    "conjugate-product": (_cmd_conjugate_product, ("seq",)),
    "estimate-constant": (_cmd_estimate, ("space", "seq")),
    "generate": (_cmd_generate, ("space",)),
}


def _atomic_write(path: str, *texts: str) -> None:
    """Write the texts, one after the other, to a new file beside `path`,
    then move it onto `path`; a failed write or move removes that file and
    raises.  Exclusive creation leaves every existing file alone and gives
    the report the mode open() gives a new file.  Each text is written in
    pieces of a million characters, so the encoder never holds a second copy
    of a whole report (41 MB for a 2^20-leaf Sawyer trace)."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "x", newline="")  # a failed open has made no file
    try:
        with fh:
            for text in texts:
                for at in range(0, len(text), 1 << 20):
                    fh.write(text[at:at + (1 << 20)])
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _csv_path(out: str) -> str:
    """Where --format json+csv writes the CSV summary of an --out path."""
    return os.path.splitext(out)[0] + ".csv"


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
    # no indent: the C encoder; the newline apart, not a copy of the whole text
    _atomic_write(config.out, json.dumps(doc, sort_keys=True), "\n")
    if config.format == "json+csv":
        rows = [["kind", "name", "lhs", "rhs", "constant", "slack", "pass"]]
        for r in reports:
            rows.append(["report", r.inequality, r.lhs, r.rhs, r.constant, r.slack, r.passed])
        for name, value in payload.get("constants", {}).items():
            rows.append(["constant", name, "", "", value, "", ""])
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        _atomic_write(_csv_path(config.out), text.getvalue())


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    handler, required = _COMMANDS[config.command]
    for name in required:
        if not getattr(config, name):
            raise ValueError(f"a {name} spec is required (--{name} or config)")
    if config.format == "json+csv" and _csv_path(config.out) == config.out:
        raise ValueError(f"--out {config.out!r}: with --format json+csv the CSV summary "
                         "would overwrite the JSON report; give --out another extension")
    started = time.monotonic()
    reports, payload = handler(config, config.space, config.seq)
    payload.setdefault("elapsed_seconds", time.monotonic() - started)
    _write_outputs(config, reports, payload)
    failed = [r for r in reports if not r.passed]
    print(
        f"{config.command}: {len(reports)} report(s), {len(failed)} failed -> {config.out}"
    )
    return 1 if failed else 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    values = {}
    for name, parse, default, _ in OPTIONS:
        flag = getattr(args, name)
        raw = flag if flag is not None else base.get(name)
        try:  # the option is named only when its parser raises
            values[name] = default if raw is None else parse(raw)
        except _SPEC_ERRORS as exc:
            raise _named(f"--{name.replace('_', '-')}" if flag is not None
                         else f"config key {name!r}", exc) from None
    tol_given = args.tol is not None or base.get("tol") is not None
    return RunConfig(args.command, **values, tol_given=tol_given)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused."""
    parser = argparse.ArgumentParser(
        prog="martbench",
        description="verification workbench for weighted martingale inequalities",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file keyed by the option names")
    for name, _, default, text in OPTIONS:
        parser.add_argument("--" + name.replace("_", "-"), help=f"{text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(_config_from_args(args))
    # a spec of the wrong JSON type (a string depth, a list for an object) is
    # malformed input too
    except (ValueError, TypeError, AttributeError, KeyError, IndexError, OSError,
            EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
