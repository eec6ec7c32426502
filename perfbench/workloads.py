"""The four workloads: seeded input pools, the timed calls into martbench
and the untimed output checks.

Inputs come from a fixed pool per workload so that every item has
constants recorded at the seed commit (reference.json).  The pool holds
`pool` blocks; block k of slot j is drawn from its own generator
(POOL_SEED, workload, j, k), and the run seed only picks which blocks run
and in which order.  A block is the unit the run loop schedules: it has
one item per slot, and the slots are chosen so that no reported latency
percentile falls on the boundary between two shape classes (see
README.md).

Every call into martbench goes through a module attribute looked up at
call time, so the tracer's patched bindings see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from martbench import cli
from martbench import exponents as E
from martbench import filtration as F
from martbench import holder as H
from martbench import scalar as S
from martbench import theorems as T
from martbench import weights as W

POOL_SEED = 14011439


@dataclass
class Item:
    key: str  # "<slot>/<pool block>", the reference entry
    leaves: int  # leaf count of the item's tree (0 for scalar items)
    unit: bool  # all-ones weight system: constants must be exactly 1.0
    inputs: object


class Workload:
    name = ""
    why = ""
    slots: tuple = ()
    pool = 0
    warmup_slots: tuple = ()

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.report_bytes: list[int] = []  # sizes of the JSON reports the CLI wrote

    def block(self, k: int) -> list[Item]:
        """Generate the inputs of pool block k, one item per slot."""
        out = []
        for j, slot in enumerate(self.slots):
            rng = np.random.default_rng([POOL_SEED, WORKLOADS.index(type(self)), j, k])
            out.append(self.make_item(f"{j}/{k}", slot, rng))
        return out

    def make_item(self, key: str, slot, rng: np.random.Generator) -> Item:
        raise NotImplementedError

    def execute(self, item: Item):
        """The timed work of one item: calls into martbench only."""
        raise NotImplementedError

    def check(self, item: Item, output) -> tuple[str, list | None]:
        """Untimed: ("ok", constants) when every verdict passed, else the
        failure kind and None."""
        raise NotImplementedError


# --- tree systems shared by the two theorem harnesses -----------------------

# (depth, branching, head length, unit system).  Latency is set by the
# shape: 2- and 3-leaf trees take a few ms, 4 leaves about 3x that, and the
# 8- and 9-leaf trees (677 and 730 stopping times) 20-100x more, growing
# with the head length.
#
# equiv_first: four small slots, four 4-leaf slots and two large slots put
# the median inside the 4-leaf class (40-80 %) and every tail percentile
# above 80 % inside the large head-length-3 class.
EQUIV_FIRST_SLOTS = (
    (1, 2, 1, True),
    (1, 2, 2, False),
    (1, 3, 1, False),
    (1, 3, 3, False),
    (2, 2, 2, False),
    (2, 2, 2, False),
    (2, 2, 2, False),
    (2, 2, 2, False),
    (2, 3, 3, False),
    (3, 2, 3, False),
)
# equiv_second: four small slots, two 4-leaf slots and four large slots put
# the median inside the 4-leaf class (40-60 %) and every tail percentile
# above 80 % inside the large trees with head length 3.
EQUIV_SECOND_SLOTS = (
    (1, 2, 1, True),
    (1, 2, 2, False),
    (1, 3, 1, False),
    (1, 3, 3, False),
    (2, 2, 2, False),
    (2, 2, 2, False),
    (2, 3, 1, False),
    (3, 2, 2, False),
    (2, 3, 3, False),
    (3, 2, 3, False),
)


@dataclass
class SystemInputs:
    depth: int
    branching: int
    probs: object  # leaf probabilities, or "uniform"
    head: list
    tail_mass: float
    tail_ratio: float
    weights: list
    v: np.ndarray
    fcomps: list  # per function vector, its component arrays
    seed: int


def _log_uniform(rng, spread: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(-math.log(spread), math.log(spread), n))


def _system_inputs(slot, rng, n_fvecs: int) -> SystemInputs:
    depth, branching, m, unit = slot
    n = branching**depth
    if unit:
        probs, head, tail_mass, tail_ratio = "uniform", [2.0] * m, 0.5, 0.5
        weights, v = [np.ones(n)] * m, np.ones(n)
    else:
        probs = rng.uniform(0.2, 1.0, n)
        probs /= probs.sum()
        probs[-1] += 1.0 - probs.sum()
        head = [float(p) for p in rng.uniform(1.2, 6.0, m)]
        if rng.random() < 0.3:
            tail_mass, tail_ratio = 0.0, 0.5
        else:
            tail_mass, tail_ratio = float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.2, 0.8))
        weights = [_log_uniform(rng, 3.0, n) for _ in range(m)]
        v = _log_uniform(rng, 3.0, n)
    fcomps = [[_log_uniform(rng, 6.0, n) for _ in range(m)] for _ in range(n_fvecs)]
    return SystemInputs(
        depth, branching, probs, head, tail_mass, tail_ratio, weights, v, fcomps,
        int(rng.integers(2**31)),
    )


def _build(inp: SystemInputs):
    space = F.make_tree_space(inp.depth, inp.branching, inp.probs)
    seq = E.make_exponent_sequence(inp.head, inp.tail_mass, inp.tail_ratio)
    ws = W.make_weight_system(space, seq, inp.weights, inp.v)
    return ws, [H.function_vector(space, comps) for comps in inp.fcomps]


class TreeHarness(Workload):
    """A theorem harness: an item is one weight system, its output the
    verdict and the constants, with ap (or sp) and rh first."""

    def check(self, item, output):
        passed, values = output
        if not passed:
            return "verdict", None
        if item.unit and not (values[0] == 1.0 and values[1] == 1.0):
            return "unit", None
        return "ok", values


class EquivFirst(TreeHarness):
    name = "equiv_first"
    why = (
        "first-theorem harness (criterion 09): the per-stopping-time loop and its "
        "recomputation of ap_constant dominate"
    )
    slots = EQUIV_FIRST_SLOTS
    pool = 64
    warmup_slots = (0, 1, 2, 3)

    def make_item(self, key, slot, rng):
        return Item(key, slot[1] ** slot[0], slot[3], _system_inputs(slot, rng, 2))

    def execute(self, item):
        ws, fvecs = _build(item.inputs)
        taus = list(F.enumerate_stopping_times(ws.space))
        c_a = W.ap_constant(ws)
        passed, observed, worst = True, [], []
        for fv in fvecs:
            obs = 0.0
            for tau in taus:
                rep = T.verify_ap_to_testing(ws, fv, tau)
                passed = passed and rep.passed
                if rep.rhs > 0.0:
                    obs = max(obs, rep.lhs / rep.rhs)
            passed = passed and T.verify_testing_to_weak(ws, fv, obs).passed
            rep = T.verify_weak_to_testing(ws, fv, c_a)
            passed = passed and rep.passed
            observed.append(obs)
            worst.append(rep.lhs)
        back = T.verify_testing_to_ap(ws)
        passed = passed and back.passed
        meta = back.metadata
        return passed, [c_a, meta["c_rh"], meta["c_test_observed"], *observed, *worst]


class EquivSecond(TreeHarness):
    name = "equiv_second"
    why = (
        "second-theorem harness (criterion 10): the per-support RH and testing scans "
        "over all supports dominate; no stopping-time loop"
    )
    slots = EQUIV_SECOND_SLOTS
    pool = 128
    warmup_slots = (0, 1, 2, 3)

    def make_item(self, key, slot, rng):
        return Item(key, slot[1] ** slot[0], slot[3], _system_inputs(slot, rng, 1))

    def execute(self, item):
        ws, (gv,) = _build(item.inputs)
        c_s = W.sp_constant(ws, "all")
        c_rh = W.rh_constant(ws, "all")
        trace = T.sawyer_decomposition(ws, gv)
        invariants = T.sawyer_trace_invariants(ws, trace)
        rep = T.verify_sp_to_strong(ws, gv, c_s, c_rh)
        estimate = T.estimate_best_constant("strong", ws, 6, item.inputs.seed)
        passed = (
            all(invariants.values())
            and rep.passed
            and rep.metadata["trace_pass"]
            and estimate <= rep.constant * (1.0 + 1e-12)
        )
        return passed, [c_s, c_rh, rep.constant, estimate, len(trace.cells)]


# --- scalar suite ------------------------------------------------------------

# Tail ratio range per slot.  Items with ratios in 0.2-0.8 take ~0.1 ms;
# ratios in 0.99-0.999 need long conjugate-product prefixes and Young tail
# sums (0.5-25 ms).  Seven fast slots put the median inside the fast class
# and every tail percentile inside the slow one.
SCALAR_SLOTS = ((0.2, 0.8),) * 7 + ((0.99, 0.999),) * 3


@dataclass
class ScalarInputs:
    lams: list
    recips: list  # exponents 1/lambda_i of the Young sequence
    tail_mass: float
    tail_ratio: float
    b: list
    b_tail: float
    a: list
    a_tail: float
    c: list
    c_tail: float


class ScalarSuite(Workload):
    name = "scalar_suite"
    why = (
        "criterion-01 closed forms in scalar/exponents, no tree work: the control on "
        "which stopping-time and support-scan changes predict no change"
    )
    slots = SCALAR_SLOTS
    pool = 64
    warmup_slots = tuple(range(len(SCALAR_SLOTS)))

    def make_item(self, key, slot, rng):
        m = int(rng.integers(1, 9))
        raw = rng.uniform(0.2, 1.0, m + 1)
        raw /= raw.sum()
        lams = [float(x) for x in raw[:m]]
        inputs = ScalarInputs(
            lams=lams,
            recips=[1.0 / x for x in lams],
            tail_mass=float(raw[m]),
            tail_ratio=float(rng.uniform(*slot)),
            b=[float(x) for x in rng.uniform(-3.0, 3.0, m)],
            b_tail=float(rng.uniform(-3.0, 3.0)),
            a=[float(x) for x in np.exp(rng.uniform(-3.0, 3.0, m))],
            a_tail=float(np.exp(rng.uniform(-3.0, 3.0))),
            c=[float(x) for x in np.exp(rng.uniform(-2.0, 2.0, m))],
            c_tail=1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0)),
        )
        return Item(key, 0, False, inputs)

    def execute(self, item):
        x = item.inputs
        s, r = x.tail_mass, x.tail_ratio
        jensen = S.exp_jensen_check(S.make_weighted_pair(x.lams, s, r, x.b, x.b_tail))
        am_gm = S.weighted_am_gm(S.make_weighted_pair(x.lams, s, r, x.a, x.a_tail))
        seq = E.make_exponent_sequence(x.recips, s, r)
        young = S.young_check(seq, x.c, x.c_tail)
        interval = E.conjugate_product(seq)
        return [jensen, am_gm, young], interval

    def check(self, item, output):
        reports, interval = output
        if not (all(rep.passed for rep in reports) and math.isfinite(interval.hi)):
            return "verdict", None
        values = [v for rep in reports for v in (rep.lhs, rep.rhs)]
        return "ok", values + [interval.lo, interval.hi]


# --- CLI ---------------------------------------------------------------------

CLI_COMMANDS = (
    ("weights-constants",),
    ("verify-ap",),
    ("verify-sp",),
    ("sawyer-trace",),
    ("estimate-constant", "--inequality", "testing"),
    ("estimate-constant", "--inequality", "weak"),
    ("check-conditional-holder",),
    ("conjugate-product",),
)
CLI_SPACES = {9: (2, 3), 256: (8, 2), 4096: (12, 2)}

# Every command at every size, plus a second verify-sp at 256 leaves.  Of
# the 25 invocations 21 succeed at the seed commit; sorted by latency the
# 11th of those, the median, is sawyer-trace@256, and verify-sp@256, the
# slowest, has two samples per block so that the tail stays inside it.
CLI_SLOTS = tuple((cmd, n) for n in CLI_SPACES for cmd in CLI_COMMANDS) + (
    (("verify-sp",), 256),
)


def _cli_values(command: str, doc: dict) -> list:
    reports = doc["reports"]
    if command == "weights-constants":
        c = doc["constants"]
        return [c["ap"], c["rh"], c["sp"]]
    if command == "verify-ap":
        return [doc["ap_constant"]] + [r["lhs"] for r in reports]
    if command == "verify-sp":
        return [doc["c_s"], doc["c_rh"], doc["c_final"], reports[-1]["lhs"]]
    if command == "sawyer-trace":
        return [len(doc["trace"]["cells"])]
    if command == "estimate-constant":
        return [doc["estimate"]]
    if command == "check-conditional-holder":
        return [
            len(reports),
            math.fsum(r["lhs"] for r in reports),
            math.fsum(r["rhs"] for r in reports),
        ]
    if command == "conjugate-product":
        return [doc["interval"]["lo"], doc["interval"]["hi"]]
    raise ValueError(f"no constants recorded for {command!r}")


class CliWide(Workload):
    name = "cli_wide"
    why = (
        "in-process CLI runs at 9, 256 and 4096 leaves: numpy kernels on long leaf "
        "vectors, sampled families, report writing and exit codes"
    )
    slots = CLI_SLOTS
    pool = 64
    warmup_slots = (3, 4, 7)

    def make_item(self, key, slot, rng):
        command, leaves = slot
        depth, branching = CLI_SPACES[leaves]
        seq = {
            "head": [float(p) for p in rng.uniform(1.5, 4.0, 2)],
            "tail_mass": float(rng.uniform(0.05, 0.5)),
            "tail_ratio": float(rng.uniform(0.3, 0.8)),
        }
        weights = {"generator": {"seed": int(rng.integers(2**31)), "n_active": 2, "spread": 4.0}}
        out = os.path.join(self.workdir, key.replace("/", "-") + ".json")
        argv = [
            *command,
            "--space", json.dumps({"depth": depth, "branching": branching}),
            "--seq", json.dumps(seq),
            "--weights", json.dumps(weights),
            "--family", "all" if leaves <= 9 else "sample:32",
            "--seed", str(int(rng.integers(2**31))),
            "--trials", "3",
            "--out", out,
        ]
        return Item(key, leaves, False, (command[0], argv, out))

    def execute(self, item):
        _, argv, _ = item.inputs
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def check(self, item, output):
        command, _, out = item.inputs
        doc = None
        if os.path.exists(out):
            self.report_bytes.append(os.path.getsize(out))
            with open(out) as fh:
                doc = json.load(fh)
            os.remove(out)
        if output != 0:
            return f"exit{output}", None
        if doc is None:
            return "no-report", None
        if doc["summary"]["n_failed"] or not all(r["pass"] for r in doc["reports"]):
            return "verdict", None
        return "ok", _cli_values(command, doc)


WORKLOADS = [EquivFirst, EquivSecond, CliWide, ScalarSuite]
BY_NAME = {w.name: w for w in WORKLOADS}
