#!/usr/bin/env python3
"""Digest of criterion 09's reports over seeded systems of every kept tree shape.

For each tree shape whose stopping-time family is kept (at most 4,096
times: every shape up to 11 leaves), draws seeded weight systems with two
function vectors each and runs the first theorem's chain:

  every stopping time x 2 vectors    verify_ap_to_testing
  per vector                         verify_testing_to_weak (observed ratio)
                                     verify_weak_to_testing (joint constant)
  per system                         verify_testing_to_ap

and prints the number of reports and one sha256 of their sorted-key JSON.
A second line covers the per-time reports of times off the kept tables:
seeded systems of the 16-leaf binary shape (458,330 times, a family that
streams), each with two vectors checked by verify_ap_to_testing at the same
STREAMED_TIMES times drawn by sample_stopping_time, each of which gathers
its own entries.  The lines are hashed apart, so the first stays comparable
with checkouts that print only it.  Two checkouts that print the same lines
produced the same reports, bit for bit.

With --cli it runs every CLI subcommand instead, in process, over seeded
specs on trees of 2 to 64 leaves (family "all" up to 9 leaves, "sample:16"
above), and prints the number of runs and one sha256 over each run's
arguments, exit code and report JSON (without "elapsed_seconds").  A
second line does the same on trees of 256 and 4,096 leaves, where a run
may also end in an exception that escapes the CLI; its type name stands in
for the exit code.  The lines are hashed apart, so the first stays
comparable with checkouts that print only it.

With --second it runs criterion 10's quantities instead, over seeded
systems on trees of 2 to 16 leaves, each with a finite or an infinite
exponent tail (alternately):

  per family ("all", 16 sampled times)  sp_constant, rh_constant, the
                                        sp_constant_argmax witness and the
                                        number of distinct supports
  per vector                            sawyer_decomposition, its
                                        invariants and verify_sp_to_strong
  per system                            estimate_best_constant, each id;
                                        "strong" also at 1, 2, 3 and 16 trials

and prints the number of records and one sha256 over them.

With --maximal it hashes the maximal operators instead, over seeded
systems of every kept tree shape, each with a finite or an infinite
exponent tail (alternately), its two function vectors and a third whose
components of about 1e300 overflow their products:

  per vector, unmasked and masked    gen_doob_maximal, and
  by a seeded leaf mask              level_set_stopping_time at the
                                     MAXIMAL_THRESHOLDS and at one value
                                     of the maximal function
  per component                      doob_maximal

and prints the number of records and one sha256 over them.  Masks sit on
the FunctionVector only.

With --sawyer it hashes the strong-type decomposition at CLI sizes
instead, over seeded systems of 256, 4,096 and 3^8 leaves, each with a
finite or an infinite exponent tail (alternately) and its two function
vectors:

  per vector, under the default         sawyer_decomposition, its
  budget and at one band per block      invariants and verify_sp_to_strong
  (weights.SCAN_CHUNK_FLOATS = leaves)  (c_s = c_rh = 1)

and prints the number of records and one sha256 over them.  Each budget
decomposes a system built afresh, so no kept trace is shared between them.

With --check it runs all five passes at their pinned settings (4, 6, 6, 6
and 4 systems, seed 0) and exits 1, naming the first line that differs,
unless every line is the pinned one (PINNED_LINES); a change that keeps
every value bit for bit, and the report format, passes it.  Documents are
hashed as written, stopping times and leaf sets in their run forms
({"runs": [...]}, "a_runs", "b_runs", "g_runs"): a change of format alone
moves the --cli, --second and --sawyer lines.

Usage:
  PYTHONPATH=src python scripts/report_digest.py --systems 4 --seed 0
  PYTHONPATH=src python scripts/report_digest.py --cli --systems 6 --seed 0
  PYTHONPATH=src python scripts/report_digest.py --second --systems 6 --seed 0
  PYTHONPATH=src python scripts/report_digest.py --maximal --systems 6 --seed 0
  PYTHONPATH=src python scripts/report_digest.py --sawyer --systems 4 --seed 0
  PYTHONPATH=src python scripts/report_digest.py --check
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from martbench import (
    FunctionVector,
    ap_constant,
    count_stopping_times,
    doob_maximal,
    enumerate_stopping_times,
    estimate_best_constant,
    function_vector,
    gen_doob_maximal,
    level_set_stopping_time,
    make_exponent_sequence,
    make_tree_space,
    make_weight_system,
    rh_constant,
    sample_stopping_time,
    sawyer_decomposition,
    sawyer_trace_invariants,
    sp_constant,
    support_family,
    verify_ap_to_testing,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from martbench import weights
from martbench.cli import main as cli_main
from martbench.weights import sp_constant_argmax

KEPT_TIMES = 4096
CLI_COMMANDS = (
    "check-conditional-holder", "check-holder", "conjugate-product", "enumerate-stopping-times",
    "estimate-constant", "generate", "sawyer-trace", "verify-ap", "verify-sp", "weights-constants",
)
CLI_SHAPES = ((1, 2), (1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (3, 4))
LARGE_CLI_SHAPES = ((8, 2), (12, 2))  # 256 and 4,096 leaves
# every shape of the equiv_second benchmark workload, (1, 4), and (4, 2), where
# the strong estimate's trial 2 takes its witness from a 256-sample family
SECOND_SHAPES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2))
SECOND_FAMILIES = ("all", {"count": 16, "seed": 0})
CONSTANT_IDS = ("testing", "weak", "strong", "sp-test")
STRONG_TRIALS = (1, 2, 3, 16)  # besides the 6 trials of every id
# --maximal: 0 and -0, the least subnormal, 1, inf and NaN
MAXIMAL_THRESHOLDS = (0.0, -0.0, 5e-324, 1.0, float("inf"), float("nan"))
SAWYER_SHAPES = ((8, 2), (12, 2), (8, 3))  # 256, 4,096 and 6,561 leaves
STREAMED_SHAPE = (4, 2)
STREAMED_TIMES = 64
# --check: each pass at its pinned settings (--seed 0), and the lines it prints
PINNED_PASSES = (("reports", 4), ("cli", 6), ("second", 6), ("maximal", 6), ("sawyer", 4))
PINNED_LINES = (
    "44576 reports sha256 8d3ed9a793b8f9610bc72404f3f86906cf93037027f88163ba108394dde7bd30",
    "512 streamed reports sha256 0a98cc7c2920708d282752e28b403ad17d8429465d88bd8d86e4947d49683053",
    "540 cli runs sha256 b51cfddddf9e65634536d38a0ce8371f9d84f007e4a65d41ac83244b3d4cc6d8",
    "120 large-tree cli runs sha256 "
    "b7dfd843f39eea25532af1bd5c0cd864afd7e8efab98a7af17b14e166381e4ff",
    "252 second records sha256 789e56be5e45f4c97213e9aee4212a8578ded4d06072451de13b906e7abbb683",
    "756 maximal records sha256 6954bdcd5432df0960fb0f76b52b155e66f2c9a3406d32934a9a24644759fb66",
    "48 sawyer records sha256 e12297c3f42dc24154f19bf24a9709d9891292ddfdac81024af0e0f2d978aaca",
)


def kept_shapes() -> list[tuple[int, int]]:
    """(depth, branching) of every family of at most KEPT_TIMES times; a
    depth-0 tree has one leaf whatever its branching, so it is listed once."""
    shapes = [(0, 2)]
    for depth in range(1, 5):
        for branching in range(2, 13):
            if count_stopping_times(make_tree_space(depth, branching)) <= KEPT_TIMES:
                shapes.append((depth, branching))
    return shapes


def random_system(rng, depth: int, branching: int, finite: bool | None = None):
    """A seeded weight system and two function vectors; the exponent tail is
    finite with probability 0.3, or as `finite` says when it is given."""
    n = branching**depth
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    probs[-1] += 1.0 - probs.sum()
    space = make_tree_space(depth, branching, probs)
    m = int(rng.integers(1, 4))
    head = [float(p) for p in rng.uniform(1.2, 6.0, m)]
    if finite is None:
        finite = rng.random() < 0.3
    tail = (0.0, 0.5) if finite else tuple(rng.uniform([0.02, 0.2], [0.5, 0.8]))
    seq = make_exponent_sequence(head, float(tail[0]), float(tail[1]))
    weights = [np.exp(rng.uniform(-1.1, 1.1, n)) for _ in range(m)]
    ws = make_weight_system(space, seq, weights, np.exp(rng.uniform(-1.1, 1.1, n)))
    fvecs = [
        function_vector(space, [np.exp(rng.uniform(-1.8, 1.8, n)) for _ in range(m)])
        for _ in range(2)
    ]
    return ws, fvecs


def chain_reports(ws, fvecs) -> list:
    taus = list(enumerate_stopping_times(ws.space))
    c_a = ap_constant(ws)
    reports = []
    for fv in fvecs:
        observed = 0.0
        for tau in taus:
            rep = verify_ap_to_testing(ws, fv, tau)
            reports.append(rep)
            if rep.rhs > 0.0:
                observed = max(observed, rep.lhs / rep.rhs)
        reports.append(verify_testing_to_weak(ws, fv, observed))
        reports.append(verify_weak_to_testing(ws, fv, c_a))
    reports.append(verify_testing_to_ap(ws))
    return reports


def streamed_reports(ws, fvecs, rng) -> list:
    """verify_ap_to_testing of each vector at STREAMED_TIMES seeded times."""
    taus = [sample_stopping_time(ws.space, rng) for _ in range(STREAMED_TIMES)]
    return [verify_ap_to_testing(ws, fv, tau) for fv in fvecs for tau in taus]


def second_records(ws, fvecs, seed: int) -> list:
    """Criterion 10's quantities of one system, as JSON-ready records."""
    records = []
    for family in SECOND_FAMILIES:
        witness = sp_constant_argmax(ws, family)[1]
        records.append([family, sp_constant(ws, family), rh_constant(ws, family),
                        None if witness is None else witness.tolist(),
                        len(support_family(ws.space, family))])
    c_s, c_rh = sp_constant(ws), rh_constant(ws)
    for gvec in fvecs:
        trace = sawyer_decomposition(ws, gvec)
        records.append([trace.to_json(), sawyer_trace_invariants(ws, trace),
                        verify_sp_to_strong(ws, gvec, c_s, c_rh).to_json()])
    records.append([estimate_best_constant(i, ws, 6, seed) for i in CONSTANT_IDS])
    records.append([estimate_best_constant("strong", ws, t, seed) for t in STRONG_TRIALS])
    return records


def maximal_records(ws, fvecs, rng) -> list:
    """The maximal operators on one system's vectors and on one whose
    products overflow, each unmasked and under a seeded leaf mask, as
    JSON-ready records (NaN and the sign of zero kept by json.dumps)."""
    space, seq = ws.space, ws.seq
    mask = rng.random(space.n_leaves) < 0.6
    huge = FunctionVector(tuple(f * 1e300 for f in fvecs[0].active))
    records = []
    for fv in (*fvecs, huge):
        records.append([doob_maximal(space, f).tolist() for f in fv.active])
        for vec in (fv, FunctionVector(fv.active, mask)):
            with np.errstate(over="ignore", invalid="ignore"):
                maximal = gen_doob_maximal(space, vec, seq)
                thresholds = (*MAXIMAL_THRESHOLDS, float(rng.choice(maximal)))
                taus = [level_set_stopping_time(space, vec, seq, t) for t in thresholds]
            records.append([maximal.tolist(), [tau.values.tolist() for tau in taus]])
    return records


def sawyer_records(ws, fvecs) -> list:
    """The decomposition of each vector, its invariants and the strong-type
    report at c_s = c_rh = 1, as JSON-ready records."""
    records = []
    for gvec in fvecs:
        trace = sawyer_decomposition(ws, gvec)
        records.append([trace.to_json(), sawyer_trace_invariants(ws, trace),
                        verify_sp_to_strong(ws, gvec, 1.0, 1.0).to_json()])
    return records


def sawyer_budgets(systems: int, seed: int) -> list:
    """sawyer_records of every system of SAWYER_SHAPES, under the default
    weights.SCAN_CHUNK_FLOATS and then at one band per block, each budget on
    a system built afresh from the same seed."""
    default, docs = weights.SCAN_CHUNK_FLOATS, []
    try:
        for index, (depth, branching) in enumerate(SAWYER_SHAPES):
            for system in range(systems):
                for floats in (default, branching**depth):
                    weights.SCAN_CHUNK_FLOATS = floats
                    rng = np.random.default_rng([seed, index, system])
                    docs += sawyer_records(
                        *random_system(rng, depth, branching, finite=system % 2 == 1))
    finally:
        weights.SCAN_CHUNK_FLOATS = default
    return docs


def cli_spec(rng, depth: int, branching: int) -> list[str]:
    """Seeded arguments shared by every subcommand on one tree."""
    n = branching**depth
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    probs[-1] += 1.0 - probs.sum()
    m = int(rng.integers(1, 4))
    seq = {"head": [float(p) for p in rng.uniform(1.2, 6.0, m)], "tail_mass": 0.0}
    if rng.random() >= 0.3:
        seq.update(tail_mass=float(rng.uniform(0.02, 0.5)), tail_ratio=float(rng.uniform(0.2, 0.8)))
    weights = {"seed": int(rng.integers(2**31)), "n_active": int(rng.integers(0, m + 1))}
    functions = {"seed": int(rng.integers(2**31)), "trials": 3, "spread": 1e3}
    return [
        "--space", json.dumps({"depth": depth, "branching": branching,
                               "leaf_probs": probs.tolist()}),
        "--seq", json.dumps(seq),
        "--weights", json.dumps({"generator": {**weights, "spread": 4.0}}),
        "--functions", json.dumps({"generator": functions}),
        "--family", "all" if n <= 9 else "sample:16",
        "--seed", str(int(rng.integers(2**31))),
        "--trials", "3",
    ]


def cli_runs(shapes, systems: int, seed: int, workdir: str) -> list:
    """(arguments, exit code, report JSON) of every subcommand on every spec;
    estimate-constant cycles through the inequalities, generate through the
    kinds.  An exception that escapes the CLI is recorded by its type name
    in place of the exit code."""
    out = os.path.join(workdir, "report.json")
    runs = []
    for index, (depth, branching) in enumerate(shapes):
        for system in range(systems):
            spec = cli_spec(np.random.default_rng([seed, index, system]), depth, branching)
            extra = {"estimate-constant": ["--inequality",
                                           ("testing", "weak", "strong", "sp-test")[system % 4]],
                     "generate": ["--kind", ("weights", "functions")[system % 2]]}
            for command in CLI_COMMANDS:
                argv = [command, *spec, *extra.get(command, [])]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli_main([*argv, "--out", out])
                    except Exception as exc:  # a known defect, such as the sampler's overflow
                        code = type(exc).__name__
                doc = None
                if os.path.exists(out):
                    with open(out) as fh:
                        doc = json.load(fh)
                    os.remove(out)
                    doc.pop("elapsed_seconds", None)
                runs.append([argv, code, doc])
    return runs


def digest_lines(mode: str, systems: int, seed: int) -> list[str]:
    """The lines one pass prints ("reports", "cli", "second", "maximal" or
    "sawyer"): per digest, the number of documents, its label and the sha256
    of their JSON."""
    if mode == "cli":
        with tempfile.TemporaryDirectory() as workdir:
            digests = [(cli_runs(CLI_SHAPES, systems, seed, workdir), "cli runs"),
                       (cli_runs(LARGE_CLI_SHAPES, systems, seed, workdir),
                        "large-tree cli runs")]
    elif mode == "second":
        docs = []
        for index, (depth, branching) in enumerate(SECOND_SHAPES):
            for system in range(systems):
                rng = np.random.default_rng([seed, index, system])
                ws, fvecs = random_system(rng, depth, branching, finite=system % 2 == 1)
                docs += second_records(ws, fvecs, int(rng.integers(2**31)))
        digests = [(docs, "second records")]
    elif mode == "maximal":
        docs = []
        for index, (depth, branching) in enumerate(kept_shapes()):
            for system in range(systems):
                rng = np.random.default_rng([seed, index, system])
                ws, fvecs = random_system(rng, depth, branching, finite=system % 2 == 1)
                docs += maximal_records(ws, fvecs, rng)
        digests = [(docs, "maximal records")]
    elif mode == "sawyer":
        digests = [(sawyer_budgets(systems, seed), "sawyer records")]
    else:
        docs, streamed = [], []
        shapes = kept_shapes()
        for index, (depth, branching) in enumerate(shapes):
            for system in range(systems):
                rng = np.random.default_rng([seed, index, system])
                docs += [rep.to_json() for rep in chain_reports(*random_system(rng, depth, branching))]
        for system in range(systems):
            rng = np.random.default_rng([seed, len(shapes), system])
            ws, fvecs = random_system(rng, *STREAMED_SHAPE)
            streamed += [rep.to_json() for rep in streamed_reports(ws, fvecs, rng)]
        digests = [(docs, "reports"), (streamed, "streamed reports")]
    return [f"{len(docs)} {label} sha256 "
            f"{hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()}"
            for docs, label in digests]


def check() -> int:
    """Run the five passes at their pinned settings; 0 if every line is its
    pinned line, else 1, naming the first line that differs."""
    got = [line for mode, systems in PINNED_PASSES for line in digest_lines(mode, systems, 0)]
    for line, pinned in zip(got, PINNED_LINES):
        if line != pinned:
            print(f"differs: {line}\n pinned: {pinned}")
            return 1
    print(f"all {len(PINNED_LINES)} digests match")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", type=int, default=4, help="systems per kept shape")
    parser.add_argument("--seed", type=int, default=0)
    passes = parser.add_mutually_exclusive_group()
    passes.add_argument("--cli", action="store_true", help="digest the CLI subcommands instead")
    passes.add_argument("--second", action="store_true",
                        help="digest criterion 10's quantities instead")
    passes.add_argument("--maximal", action="store_true",
                        help="digest the maximal operators instead")
    passes.add_argument("--sawyer", action="store_true",
                        help="digest the strong-type decomposition at CLI sizes instead")
    passes.add_argument("--check", action="store_true",
                        help="run all five passes at their pinned settings and compare")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.check:
        status = check()
    else:
        mode = next((m for m in ("cli", "second", "maximal", "sawyer") if getattr(args, m)),
                    "reports")
        print("\n".join(digest_lines(mode, args.systems, args.seed)))
        status = 0
    print(f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
