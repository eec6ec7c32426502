"""Spans around every public function of martbench's nine modules.

The modules import each other with `from .x import y`, so one function is
bound in several module namespaces.  Tracer collects every binding of each
public function and swaps in a wrapper while installed.  Spans (name,
start, end, parent span, item id, whether the call raised) are kept in
typed arrays, written out once at the end, and reduced to per-layer
metrics with numpy.  Generator functions (enumerate_stopping_times) are
timed up to the generator's creation only; the iteration runs as the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "exponents", "scalar", "filtration", "holder", "maximal",
    "weights", "theorems", "report", "cli",
)


def public_functions() -> dict:
    """{function object: "module.name"} for the public functions each of
    the nine modules defines."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"martbench.{short}")
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                found[obj] = f"{short}.{name}"
    return found


class Tracer:
    def __init__(self) -> None:
        functions = public_functions()
        self.names = sorted(functions.values())
        ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.item = -1
        self.supports_returned = 0
        self.sampled_supports = 0
        self.sampled_times = 0
        self._stack = [-1]
        self._support_family_id = ids["weights.support_family"]
        wrappers = {fn: self._wrap(fn, ids[name]) for fn, name in functions.items()}
        namespaces = [importlib.import_module("martbench")] + [
            importlib.import_module(f"martbench.{m}") for m in MODULES
        ]
        self._bindings = [
            (ns, attr, obj, wrappers[obj])
            for ns in namespaces
            for attr, obj in list(vars(ns).items())
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def _wrap(self, fn, name_id: int):
        stack = self._stack
        start, end, raised = self.start, self.end, self.raised
        name_ids, parents, items = self.name_id, self.parent, self.item_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ids.append(name_id)
            parents.append(stack[-1])
            items.append(self.item)
            raised.append(0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()
            if name_id == self._support_family_id:
                self._count_supports(args, kwargs, result)
            return result

        return traced

    def _count_supports(self, args, kwargs, result) -> None:
        family = args[1] if len(args) > 1 else kwargs.get("family", "all")
        self.supports_returned += len(result)
        if isinstance(family, dict):
            self.sampled_supports += len(result)
            self.sampled_times += int(family["count"])

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "item": np.array(self.item_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "raised": np.array(self.raised, dtype=np.int8),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def span_totals(name_id, parent, start, end, raised, n_names: int) -> dict:
    """Per-name calls, total seconds, self seconds and raised calls.

    Self time is a span's duration minus the durations of its direct
    children; children lie inside their parent, so that is the part of the
    interval no child covers.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    return {
        "calls": np.bincount(name_id, minlength=n_names),
        "total_s": np.bincount(name_id, weights=dur, minlength=n_names),
        "self_s": np.bincount(name_id, weights=own, minlength=n_names),
        "failed": np.bincount(name_id, weights=raised, minlength=n_names),
    }


def us_per_call_by_leaves(arrays: dict, item_leaves: np.ndarray, name: str, leaves: int) -> float:
    """Mean span duration in µs of `name` inside items with `leaves` leaves
    (0 when no such call ran)."""
    names = list(arrays["names"])
    if name not in names:
        return 0.0
    sel = (arrays["name_id"] == names.index(name)) & (
        item_leaves[arrays["item"]] == leaves
    )
    if not sel.any():
        return 0.0
    return float(np.mean(arrays["end"][sel] - arrays["start"][sel])) * 1e6
