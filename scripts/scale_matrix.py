#!/usr/bin/env python3
"""Scale matrix: every tree command of the CLI at every tree size up to MAX_LEAVES.

Runs each command on binary trees of depth 4, 8, 12, 16 and 20 and on
ternary trees of depth 2, 5, 8 and 11 (16 to 2**20 leaves), with the
family "all" up to 16 leaves and "sample:32" above.  Each cell is its own
child process (`python -m martbench.cli`, from this checkout's src), run
one at a time.  Per cell it prints the exit code, or the type of an
exception that escaped the CLI, the wall time, the child's own peak RSS
(ru_maxrss from os.wait4, the child's resource usage as the kernel reports
it: nothing about the machine is set or changed) and the size in bytes of
the JSON report it wrote ("-" where it wrote none).

The peak RSS cannot resolve a move of a few MB: the C allocator keeps
freed blocks resident, so the same code can read 4 MB apart from one
checkout directory to the next.  --traced runs each cell a second time,
with the child tracing its own allocations under tracemalloc (numpy's
arrays included) from before martbench is imported, and adds that run's
traced peak as a last column, traced_MB.  The wall time and peak RSS
stay the untraced run's.

Usage:
  python scripts/scale_matrix.py
  python scripts/scale_matrix.py --commands sawyer-trace estimate-constant:weak --trees 2^20
  python scripts/scale_matrix.py --commands estimate-constant:weak --trees 2^20 --traced
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> CLI arguments; estimate-constant once per inequality
COMMANDS = {
    "check-holder": ["check-holder"],
    "check-conditional-holder": ["check-conditional-holder"],
    "weights-constants": ["weights-constants"],
    "verify-ap": ["verify-ap"],
    "verify-sp": ["verify-sp"],
    "sawyer-trace": ["sawyer-trace"],
    **{f"estimate-constant:{q}": ["estimate-constant", "--inequality", q]
       for q in ("testing", "weak", "strong")},
}
TREES = [(2, d) for d in (4, 8, 12, 16, 20)] + [(3, d) for d in (2, 5, 8, 11)]
SEQ = '{"head":[2.5,3.0],"tail_mass":0.2,"tail_ratio":0.5}'
WEIGHTS = '{"generator":{"seed":1,"n_active":2,"spread":4.0}}'
# the traced child: argv[1] receives the traced peak in bytes, the rest is the CLI's
TRACED_CHILD = """
import sys, tracemalloc
tracemalloc.start()
try:
    from martbench import cli
    code = cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        fh.write(str(tracemalloc.get_traced_memory()[1]))
sys.exit(code)
"""


def cell_argv(command: str, branching: int, depth: int, out: str) -> list[str]:
    """The CLI arguments of one cell."""
    return [
        *COMMANDS[command],
        "--space", f'{{"depth":{depth},"branching":{branching}}}',
        "--seq", SEQ,
        "--weights", WEIGHTS,
        "--family", "all" if branching**depth <= 16 else "sample:32",
        "--trials", "3",
        "--out", out,
    ]


def child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_cell(command: str, branching: int, depth: int,
             workdir: str) -> tuple[str, float, float, int | None]:
    """(outcome, wall seconds, peak RSS in MB, report bytes or None) of one
    cell in a child process: the outcome is the exit code, or the type name
    of an escaped exception."""
    err_path = os.path.join(workdir, "stderr.txt")
    report = os.path.join(workdir, "report.json")
    argv = cell_argv(command, branching, depth, report)
    started = time.perf_counter()
    with open(err_path, "w") as err:
        child = subprocess.Popen([sys.executable, "-m", "martbench.cli", *argv],
                                 stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as err:
        lines = err.read().strip().splitlines()
    escaped = lines and "Traceback (most recent call last):" in lines
    outcome = lines[-1].split(":", 1)[0] if escaped else str(child.returncode)
    size = None
    if os.path.exists(report):
        size = os.path.getsize(report)
        os.remove(report)
    return outcome, seconds, usage.ru_maxrss / 1024, size  # ru_maxrss is in KiB on Linux


def traced_peak(command: str, branching: int, depth: int, workdir: str) -> float:
    """The tracemalloc peak in MB of one cell run again in a child process
    that traces its own allocations (TRACED_CHILD), NaN if the child was
    killed before it wrote one; its outcome is the untraced run's, and its
    report is removed."""
    peak_path = os.path.join(workdir, "traced_peak.txt")
    report = os.path.join(workdir, "report.json")
    argv = cell_argv(command, branching, depth, report)
    subprocess.run([sys.executable, "-c", TRACED_CHILD, peak_path, *argv],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=child_env())
    if os.path.exists(report):
        os.remove(report)
    if not os.path.exists(peak_path):
        return math.nan
    with open(peak_path) as fh:
        peak = int(fh.read())
    os.remove(peak_path)
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", nargs="+", choices=list(COMMANDS), default=list(COMMANDS))
    parser.add_argument("--trees", nargs="+", default=[f"{r}^{d}" for r, d in TREES],
                        help="trees as BRANCHING^DEPTH (default: the nine of the matrix)")
    parser.add_argument("--traced", action="store_true",
                        help="run each cell again under tracemalloc and add its peak, traced_MB")
    args = parser.parse_args(argv)
    trees = [tuple(map(int, tree.split("^"))) for tree in args.trees]
    print(f"{'command':<28} {'tree':>5} {'leaves':>8} {'outcome':>14} {'wall_s':>7} "
          f"{'peak_MB':>8} {'report_B':>10}" + (f" {'traced_MB':>9}" if args.traced else ""))
    with tempfile.TemporaryDirectory() as workdir:
        for command in args.commands:
            for branching, depth in trees:
                outcome, seconds, peak, size = run_cell(command, branching, depth, workdir)
                traced = (f" {traced_peak(command, branching, depth, workdir):>9.1f}"
                          if args.traced else "")
                print(f"{command:<28} {branching}^{depth:<3} {branching**depth:>8} "
                      f"{outcome:>14} {seconds:>7.2f} {peak:>8.0f} "
                      f"{'-' if size is None else size:>10}{traced}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
