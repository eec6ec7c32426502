#!/usr/bin/env python3
"""One sha256 over the outputs of every item of a benchmark workload's pool.

Runs, in process and in pool order, every item of the first --blocks pool
blocks (default: the whole pool) of one workload of
perfbench/workloads.py, and prints the number of items and one sha256
over each item's key, outcome and output repr.  The outcome is the kind
the workload's own check gives ("ok", "verdict", "exit1", ...), or the type
name of an exception that escaped the item, which then stands in for the
output.  For cli_wide the output is the exit code and the report JSON the
run wrote, without "elapsed_seconds".  A float's repr is exact, so two
checkouts that print the same line produced the same outputs, bit for bit.

The workloads are imported from perfbench/ and martbench from this
checkout's src/; nothing under perfbench/ is written.

Usage:
  python scripts/pool_dump.py --workload equiv_first
  python scripts/pool_dump.py --workload cli_wide --blocks 4
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (after the path set-up above)


def item_records(workload, blocks: int):
    """(key, outcome, output repr) of every item of the first `blocks` blocks."""
    for k in range(blocks):
        for item in workload.block(k):
            try:
                output = workload.execute(item)
            except Exception as exc:  # an escaped exception is the item's outcome
                yield item.key, type(exc).__name__, ""
                continue
            doc = None
            if isinstance(workload, workloads.CliWide) and os.path.exists(item.inputs[2]):
                with open(item.inputs[2]) as fh:  # check() reads it again, and removes it
                    doc = json.load(fh)
                doc.pop("elapsed_seconds", None)
            outcome, _ = workload.check(item, output)
            yield item.key, outcome, repr(output if doc is None else (output, doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BY_NAME))
    parser.add_argument("--blocks", type=int, default=None,
                        help="the first N pool blocks (default: the whole pool)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.BY_NAME[args.workload](workdir)
        blocks = workload.pool if args.blocks is None else args.blocks
        if not 1 <= blocks <= workload.pool:
            parser.error(f"--blocks must lie in 1..{workload.pool}")
        h, count = hashlib.sha256(), 0
        for record in item_records(workload, blocks):
            h.update(repr(record).encode())
            count += 1
    print(f"{args.workload} {count} items {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
