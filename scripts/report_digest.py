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
Two checkouts that print the same line produced the same reports, bit for
bit.

Usage:
  PYTHONPATH=src python scripts/report_digest.py --systems 4 --seed 0
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from martbench import (
    ap_constant,
    count_stopping_times,
    enumerate_stopping_times,
    function_vector,
    make_exponent_sequence,
    make_tree_space,
    make_weight_system,
    verify_ap_to_testing,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)

KEPT_TIMES = 4096


def kept_shapes() -> list[tuple[int, int]]:
    """(depth, branching) of every family of at most KEPT_TIMES times; a
    depth-0 tree has one leaf whatever its branching, so it is listed once."""
    shapes = [(0, 2)]
    for depth in range(1, 5):
        for branching in range(2, 13):
            if count_stopping_times(make_tree_space(depth, branching)) <= KEPT_TIMES:
                shapes.append((depth, branching))
    return shapes


def random_system(rng, depth: int, branching: int):
    n = branching**depth
    probs = rng.uniform(0.2, 1.0, n)
    probs /= probs.sum()
    probs[-1] += 1.0 - probs.sum()
    space = make_tree_space(depth, branching, probs)
    m = int(rng.integers(1, 4))
    head = [float(p) for p in rng.uniform(1.2, 6.0, m)]
    tail = (0.0, 0.5) if rng.random() < 0.3 else tuple(rng.uniform([0.02, 0.2], [0.5, 0.8]))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", type=int, default=4, help="systems per kept shape")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    docs = []
    for index, (depth, branching) in enumerate(kept_shapes()):
        for system in range(args.systems):
            rng = np.random.default_rng([args.seed, index, system])
            docs += [rep.to_json() for rep in chain_reports(*random_system(rng, depth, branching))]
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    print(f"{len(docs)} reports sha256 {digest}")
    print(f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
