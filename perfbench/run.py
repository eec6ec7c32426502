"""martbench benchmark: one workload per run, single-threaded, closed loop.

    python3 perfbench/run.py --workload equiv_first --seed 1 --seconds 25 --trace 0

Run from the repository root.  It imports martbench from ./src, builds
the workload's inputs from --seed, times whole blocks of items until
--seconds have passed, checks every output against the verdicts and the
constants recorded in perfbench/reference.json, and prints one JSON object
as the last line of standard output.  --trace 0 reports the end-to-end
metrics; --trace 1 alternates untraced and traced blocks and reports the
per-layer metrics, writing the spans to perfbench/out/.

    python3 perfbench/run.py --record-reference

re-records reference.json from the current code; do that only at a
commit whose outputs are taken as correct.
"""

from __future__ import annotations

import os

# numpy must see these before its first import: one BLAS/OpenMP thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from time import perf_counter

from measure import (
    CAL_EVERY_S,
    CAL_REF_S,
    Tally,
    calibration_seconds,
    classify,
    latency_summary,
    speed_factors,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 7
# Times `import martbench` in a fresh interpreter, then the calibration
# kernel in that same interpreter to scale the import time.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import martbench; "
    "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from measure import calibration_seconds; print(dt, calibration_seconds())"
)

END_TO_END = {
    "setup_s": "s",
    "ok_items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def import_martbench():
    """Import martbench from ./src, never from an installed copy."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import martbench

    if not os.path.abspath(martbench.__file__).startswith(SRC + os.sep):
        raise ImportError(f"martbench imported from {martbench.__file__}, not {SRC}")


def child_import_seconds() -> tuple[float, float]:
    """`import martbench` timed inside a fresh interpreter, with the
    calibration time measured right after it there."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, HERE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    import_s, cal_s = done.stdout.split()[-2:]
    return float(import_s), float(cal_s)


def prepare(workload, seed: int):
    """Inputs for the run: every pool block in the seed's order, each
    block's items shuffled by the seed.  The last block in that order
    feeds the warm-up."""
    import numpy as np

    rng = np.random.default_rng(seed % 2**64)
    blocks = [workload.block(int(k)) for k in rng.permutation(workload.pool)]
    warmup = [blocks[-1][j] for j in workload.warmup_slots]
    return [[b[i] for i in rng.permutation(len(b))] for b in blocks], warmup


def run_item(workload, item, reference, tally):
    """Time one item, check it untimed; returns (seconds, succeeded)."""
    t0 = perf_counter()
    try:
        output = workload.execute(item)
        failure = None
    except Exception as exc:  # a crash is one failed item, not a failed run
        failure = type(exc).__name__
        if failure not in tally.by_kind:
            print(f"{item.key}: {failure}: {str(exc)[:200]}", file=sys.stderr)
    seconds = perf_counter() - t0
    if failure is None:
        outcome, values = workload.check(item, output)
    else:
        outcome, values = failure, None
    ref = reference.get(item.key)
    return seconds, tally.add(classify(outcome, values, ref), ref)


class RunRecord:
    """Per-item raw times and the calibrations taken between them.

    Typed arrays keep the bookkeeping near 20 bytes an item, so that
    peak_rss_mb barely grows with the number of items a run completes.
    """

    def __init__(self) -> None:
        self.tally = Tally()
        self.block, self.cal_index, self.item_leaves = array("i"), array("i"), array("i")
        self.traced, self.ok = array("b"), array("b")
        self.seconds = array("d")
        self.cals = [calibration_seconds()]
        self._since_cal = 0.0

    def add(self, block: int, traced: bool, leaves: int, seconds: float, ok: bool) -> None:
        self.block.append(block)
        self.traced.append(traced)
        self.item_leaves.append(leaves)
        self.seconds.append(seconds)
        self.ok.append(ok)
        self.cal_index.append(len(self.cals) - 1)
        self._since_cal += seconds

    def maybe_calibrate(self, force: bool = False) -> None:
        if force or self._since_cal >= CAL_EVERY_S:
            self.cals.append(calibration_seconds())
            self._since_cal = 0.0

    def block_rates(self, traced: bool, scaled: bool = True) -> list[float]:
        """Items that succeeded per second of (scaled) timed work, per block."""
        factors = speed_factors(self.cal_index, self.cals)
        busy, ok = {}, {}
        for b, t, good, sec, f in zip(self.block, self.traced, self.ok, self.seconds, factors):
            if t == traced:
                busy[b] = busy.get(b, 0.0) + sec * (f if scaled else 1.0)
                ok[b] = ok.get(b, 0) + good
        return [ok[b] / busy[b] for b in busy]

    def ok_latencies(self, scaled: bool = True) -> list[float]:
        factors = speed_factors(self.cal_index, self.cals)
        return [
            sec * (f if scaled else 1.0)
            for t, good, sec, f in zip(self.traced, self.ok, self.seconds, factors)
            if good and not t
        ]


def measure_run(workload, blocks, reference, seconds: float, tracer) -> RunRecord:
    """Run whole blocks until `seconds` have passed.

    With a tracer, blocks alternate between untraced and traced, so both
    rates come from the same stretch of time; the parity flips on every
    pass over the pool, so each pool block runs both ways.
    """
    rec = RunRecord()
    min_blocks = 2 if tracer else 1
    begin = perf_counter()
    b = 0
    while b < min_blocks or perf_counter() - begin < seconds:
        traced = tracer is not None and (b + b // len(blocks)) % 2 == 1
        if traced:
            tracer.install()
        try:
            for item in blocks[b % len(blocks)]:
                rec.maybe_calibrate()
                if tracer is not None:
                    tracer.item = len(rec.item_leaves)
                dt, succeeded = run_item(workload, item, reference, rec.tally)
                rec.add(b, traced, item.leaves, dt, succeeded)
        finally:
            if traced:
                tracer.remove()
        b += 1
    rec.maybe_calibrate(force=True)
    return rec


def end_to_end_metrics(setup_s: float, rec: RunRecord) -> tuple[dict, list[str]]:
    rates = rec.block_rates(False)
    values = {
        "setup_s": setup_s,
        "ok_items_per_s": statistics.median(rates),
        "item_ms_p50": 0.0,
        "item_ms_tail": 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"ok_items_per_s is the median of {len(rates)} block rates"]
    if any(rec.ok):
        lat = latency_summary(rec.ok_latencies())
        raw = latency_summary(rec.ok_latencies(scaled=False))
        values["item_ms_p50"] = lat["p50_ms"]
        values["item_ms_tail"] = lat["tail_ms"]
        notes.append(f"item_ms_tail is p{lat['tail_pct']:.2f} of {lat['n']} ok items")
        notes.append(
            f"unscaled: ok_items_per_s {statistics.median(rec.block_rates(False, scaled=False)):.6g}, "
            f"item_ms_p50 {raw['p50_ms']:.6g}, item_ms_tail {raw['tail_ms']:.6g}"
        )
    speed = statistics.median(rec.cals) / CAL_REF_S
    notes.append(f"calibration kernel ran {speed:.3f}x its reference time (median of {len(rec.cals)})")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        import_martbench()
    except ImportError as exc:
        print(f"error: cannot import martbench from {SRC}: {exc}", file=sys.stderr)
        return 1
    from workloads import BY_NAME

    if args.record_reference:
        return record_reference()
    if args.workload not in BY_NAME:
        parser.error(f"--workload must be one of {sorted(BY_NAME)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as workdir:
        workload = BY_NAME[args.workload](workdir)
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            import_s, import_cal = child_import_seconds()
            cal_before = calibration_seconds()
            t0 = perf_counter()
            blocks, warmup = prepare(workload, args.seed)
            for item in warmup:
                output = workload.execute(item)
                workload.check(item, output)
            prepare_s = perf_counter() - t0
            raw_setups.append(import_s + prepare_s)
            cal_after = calibration_seconds()
            setups.append(
                import_s * CAL_REF_S / import_cal
                + prepare_s * 2.0 * CAL_REF_S / (cal_before + cal_after)
            )
        workload.report_bytes.clear()

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        rec = measure_run(workload, blocks, reference, args.seconds, tracer)

    tally = rec.tally
    print(
        f"{args.workload} seed={args.seed}: {tally.attempted} items in {rec.block[-1] + 1} blocks, "
        f"{tally.failed} failed (fail_ratio {tally.fail_ratio:.4f})"
    )
    for kind, count in sorted(tally.by_kind.items()):
        known = "unexpected" if kind in tally.unexpected else "known defect"
        print(f"  failures {kind}: {count} ({known})")
    if args.trace:
        from layers import layer_metrics

        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(path)
        rates = {traced: rec.block_rates(traced) for traced in (False, True)}
        metrics = layer_metrics(tracer, workload, rec.item_leaves, rates, tally)
        print(f"  {tracer.n_spans} spans written to {os.path.relpath(path, ROOT)}")
    else:
        values, notes = end_to_end_metrics(statistics.median(setups), rec)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        notes.append(f"unscaled setup_s {statistics.median(raw_setups):.6g}")
        for note in notes:
            print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def record_reference() -> int:
    """Run every pool item once and write its constants or failure kind."""
    from workloads import WORKLOADS

    table = {}
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="ref-") as workdir:
        for cls in WORKLOADS:
            workload = cls(workdir)
            entries = {}
            tally = Tally()
            for k in range(workload.pool):
                for item in workload.block(k):
                    try:
                        outcome, values = workload.check(item, workload.execute(item))
                    except Exception as exc:
                        outcome, values = type(exc).__name__, None
                    # 12 significant digits keep the file small and sit far
                    # inside the 1e-9 comparison tolerance.
                    entries[item.key] = (
                        [float(f"{v:.12g}") if isinstance(v, float) else v for v in values]
                        if outcome == "ok"
                        else outcome
                    )
                    tally.add(outcome, None)
            table[cls.name] = entries
            print(f"{cls.name}: {tally.attempted} items, failures {dict(tally.by_kind)}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        fh.write("{\n")
        for i, (name, entries) in enumerate(table.items()):
            fh.write(f'"{name}": {{\n')
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()))
            fh.write("\n}" + (",\n" if i < len(table) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
