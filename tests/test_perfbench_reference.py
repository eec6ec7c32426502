"""The benchmark's reference check on a few pool blocks of every workload.

perfbench/run.py compares each item's constants with perfbench/reference.json
at 1e-9 relative and counts a failure kind the reference does not record as
a wrong output.  Running pool blocks 0-3 of each workload through the same
execute, check, classify and Tally steps shows reference drift here rather
than only in a benchmark run.  perfbench/ is only read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__

from measure import Tally, classify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

BLOCKS = range(4)


@pytest.mark.parametrize("cls", WORKLOADS, ids=lambda cls: cls.name)
def test_pool_blocks_match_the_reference(cls, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[cls.name]
    workload = cls(str(tmp_path))
    tally = Tally()
    for k in BLOCKS:
        for item in workload.block(k):
            try:
                outcome, values = workload.check(item, workload.execute(item))
            except Exception as exc:  # a crash is one failed item, as in run.py
                outcome, values = type(exc).__name__, None
            ref = reference.get(item.key)
            tally.add(classify(outcome, values, ref), ref)
    assert tally.attempted == len(BLOCKS) * len(cls.slots)
    assert tally.correct, dict(tally.unexpected)
