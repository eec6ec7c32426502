"""The function names the benchmark's traced run looks up still exist.

perfbench/layers.py reports per-layer metrics for the public functions it
names (TOP_FUNCTIONS, BY_SIZE), and tracing.Tracer looks up
weights.support_family to count supports.  A public function that is
deleted or renamed makes `perfbench/run.py --trace 1` raise KeyError; these
tests show it in tier-1 instead.  perfbench/ is only read.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__

import layers  # noqa: E402
import tracing  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_named_functions_are_public():
    public = set(tracing.public_functions().values())
    wanted = {*layers.TOP_FUNCTIONS, *layers.BY_SIZE, "weights.support_family"}
    assert wanted <= public, sorted(wanted - public)


def test_every_per_layer_metric_is_found_on_an_empty_trace():
    # a Tracer built but never installed has no spans; every declared metric
    # must still be looked up without a KeyError
    tracer = tracing.Tracer()
    found = layers.layer_metrics(
        tracer,
        SimpleNamespace(report_bytes=[]),
        [],
        {False: [1.0], True: [1.0]},
        SimpleNamespace(fail_ratio=0.0),
    )
    assert list(found) == [name for name, _ in layers.PER_LAYER]
