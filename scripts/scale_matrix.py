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

Usage:
  python scripts/scale_matrix.py
  python scripts/scale_matrix.py --commands sawyer-trace estimate-constant:weak --trees 2^20
"""

import argparse
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


def run_cell(command: str, branching: int, depth: int,
             workdir: str) -> tuple[str, float, float, int | None]:
    """(outcome, wall seconds, peak RSS in MB, report bytes or None) of one
    cell in a child process: the outcome is the exit code, or the type name
    of an escaped exception."""
    err_path = os.path.join(workdir, "stderr.txt")
    report = os.path.join(workdir, "report.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = cell_argv(command, branching, depth, report)
    started = time.perf_counter()
    with open(err_path, "w") as err:
        child = subprocess.Popen([sys.executable, "-m", "martbench.cli", *argv],
                                 stdout=subprocess.DEVNULL, stderr=err, env=env)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", nargs="+", choices=list(COMMANDS), default=list(COMMANDS))
    parser.add_argument("--trees", nargs="+", default=[f"{r}^{d}" for r, d in TREES],
                        help="trees as BRANCHING^DEPTH (default: the nine of the matrix)")
    args = parser.parse_args(argv)
    trees = [tuple(map(int, tree.split("^"))) for tree in args.trees]
    print(f"{'command':<28} {'tree':>5} {'leaves':>8} {'outcome':>14} {'wall_s':>7} "
          f"{'peak_MB':>8} {'report_B':>10}")
    with tempfile.TemporaryDirectory() as workdir:
        for command in args.commands:
            for branching, depth in trees:
                outcome, seconds, peak, size = run_cell(command, branching, depth, workdir)
                print(f"{command:<28} {branching}^{depth:<3} {branching**depth:>8} "
                      f"{outcome:>14} {seconds:>7.2f} {peak:>8.0f} "
                      f"{'-' if size is None else size:>10}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
