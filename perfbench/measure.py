"""Helpers of the benchmark: the speed calibration, latency percentiles,
the reference comparison and the failure tally.  Nothing here imports
martbench."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

# Relative tolerance at which an item's constants must agree with the
# reference recorded at the seed commit.
REF_REL_TOL = 1e-9

# Samples that must lie strictly above the reported tail latency, and the
# highest percentile reported.
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0

# A shared 2-core host can change speed by up to 2x within seconds.  Every
# time metric is therefore scaled to a reference speed: a fixed
# numpy-and-interpreter kernel, timed between items, takes CAL_REF_S there.
# CAL_EVERY_S of timed work separates two calibrations.
CAL_REF_S = 0.25e-3
CAL_EVERY_S = 0.02
_CAL_X = np.linspace(0.1, 1.0, 64)


def _calibration_kernel() -> float:
    acc = 0.0
    for i in range(50):
        y = np.exp(_CAL_X * 0.5).reshape(8, 8).sum(axis=1)
        acc += float(y.max()) + (i % 7) * 0.5
    return acc


def calibration_seconds() -> float:
    """Shortest of three runs of the calibration kernel (about 0.25-0.4 ms);
    the shortest drops an interrupt that hits one run."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - t0)
    return best


def speed_factors(cal_index: list[int], cals: list[float]) -> list[float]:
    """Per item, CAL_REF_S over the mean of the calibrations taken just
    before (cals[i]) and just after (cals[i + 1]) it."""
    return [2.0 * CAL_REF_S / (cals[i] + cals[i + 1]) for i in cal_index]


def tail_rank(n: int) -> tuple[int, float]:
    """1-based nearest rank and percentile of the tail latency for n samples.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    beyond it (rank n - 10), capped at TAIL_MAX_PCT: above p99 of tens of
    thousands of sub-millisecond items the value follows the host's
    changes of speed during the run, not the program.  Below 2 * 10
    samples that percentile would drop under the median, so the median is
    reported instead.
    """
    if n < 1:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        rank = (n + 1) // 2
    else:
        rank = min(n - TAIL_BEYOND, math.ceil(n * TAIL_MAX_PCT / 100.0))
    return rank, 100.0 * rank / n


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail latency in ms, with the tail percentile and count."""
    ordered = sorted(seconds)
    rank, pct = tail_rank(len(ordered))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[rank - 1] * 1e3,
        "tail_pct": pct,
        "n": len(ordered),
    }


def values_match(reference: list, got: list, rel: float = REF_REL_TOL) -> bool:
    """Whether every recorded constant agrees at `rel` relative.

    Integers (counts such as trace cells) must be equal; floats agree
    when |a - b| <= rel * max(|a|, |b|), so an exact 0 matches only 0.
    """
    if len(reference) != len(got):
        return False
    for a, b in zip(reference, got):
        if isinstance(a, int) and isinstance(b, int):
            if a != b:
                return False
            continue
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        if abs(a - b) > rel * max(abs(a), abs(b)):
            return False
    return True


def expected_outcome(reference) -> str | None:
    """The outcome recorded at the seed commit.

    A reference entry is the list of constants of an item that passed, or
    the failure kind of an item that failed; None means no entry.
    """
    if reference is None:
        return None
    return reference if isinstance(reference, str) else "ok"


def classify(outcome: str, values: list | None, reference) -> str:
    """Final outcome of one item against its reference entry.

    `outcome` is "ok" when the item ran and every verdict passed,
    otherwise the failure kind (an exception name, "exit<code>",
    "verdict" or "unit").  An ok item whose constants disagree with the
    reference becomes "mismatch".  An item the reference recorded as
    failing has no constants to compare, so its verdicts alone decide.
    """
    if outcome != "ok" or expected_outcome(reference) != "ok":
        return outcome
    return "ok" if values_match(reference, values) else "mismatch"


class Tally:
    """Per-item outcomes of one run, with known defects kept apart.

    A failure is known when the reference recorded the same failure kind
    for that item at the seed commit; any other failure, and every wrong
    output (a failed verdict, a unit constant other than 1.0, a constant
    off the reference), makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: Counter = Counter()
        self.unexpected: Counter = Counter()

    def add(self, final: str, reference) -> bool:
        """Record one item; returns whether it succeeded."""
        self.attempted += 1
        if final == "ok":
            return True
        self.failed += 1
        self.by_kind[final] += 1
        if expected_outcome(reference) != final:
            self.unexpected[final] += 1
        return False

    @property
    def correct(self) -> bool:
        return not self.unexpected

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
