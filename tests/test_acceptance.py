"""End-to-end acceptance suite.

One test per criterion, each asserting its stated tolerance and printing a
PASS line (visible with pytest -s or in verbose test listings).  Criteria
with runtime budgets assert them.
"""

import itertools
import time

import numpy as np

from martbench.exponents import (
    conjugate_product,
    make_exponent_sequence,
    xi_constant,
)
from martbench.filtration import (
    StoppingTime,
    cond_exp,
    cond_exp_matrix,
    count_stopping_times,
    enumerate_stopping_times,
    is_stopping_time,
    make_tree_space,
    sample_stopping_time,
    stopped_value,
)
from martbench.holder import (
    FunctionVector,
    function_vector,
    holder_conditional_check,
    holder_integral_check,
    lp_norm,
)
from martbench.maximal import doob_inequality_check, doob_maximal, gen_doob_maximal
from martbench.scalar import (
    exp_jensen_check,
    make_weighted_pair,
    product_eval,
    weighted_am_gm,
    young_check,
)
from martbench.theorems import (
    estimate_best_constant,
    sawyer_decomposition,
    sawyer_trace_invariants,
    verify_ap_to_testing,
    verify_sp_to_strong,
    verify_testing_to_ap,
    verify_testing_to_weak,
    verify_weak_to_testing,
)
from martbench.weights import (
    ap_constant,
    rh_constant,
    sp_constant,
    unit_weight_system,
)

from helpers import (
    random_fvec,
    random_leaf_mask,
    random_positive,
    random_sequence,
    random_space,
    random_weight_system,
    stopped_average_oracle,
    two_function_holder_oracle,
)


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def _random_lambdas(rng, max_head=8):
    m = int(rng.integers(1, max_head + 1))
    raw = rng.uniform(0.2, 1.0, m + 1)
    raw /= raw.sum()
    return raw[:m], float(raw[m]), float(rng.uniform(0.2, 0.8))


def test_criterion_01_scalar_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(10_000):
        lams, s, ratio = _random_lambdas(rng)
        b = rng.uniform(-3.0, 3.0, len(lams))
        assert exp_jensen_check(
            make_weighted_pair(lams, s, ratio, b, float(rng.uniform(-3, 3)))
        ).passed
    for _ in range(10_000):
        lams, s, ratio = _random_lambdas(rng)
        a = np.exp(rng.uniform(-3.0, 3.0, len(lams)))
        assert weighted_am_gm(
            make_weighted_pair(lams, s, ratio, a, float(np.exp(rng.uniform(-3, 3))))
        ).passed
    for _ in range(10_000):
        lams, s, ratio = _random_lambdas(rng)
        seq = make_exponent_sequence([1.0 / l for l in lams], s, ratio)
        c = np.exp(rng.uniform(-2.0, 2.0, len(lams)))
        tail = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
        assert young_check(seq, c, tail).passed
    # equality cases: all-equal inputs pin both sides together
    for _ in range(200):
        lams, s, ratio = _random_lambdas(rng)
        b0 = float(rng.uniform(-2, 2))
        rep = exp_jensen_check(make_weighted_pair(lams, s, ratio, [b0] * len(lams), b0))
        assert abs(rep.lhs - rep.rhs) <= 1e-12 * rep.rhs
        a0 = float(np.exp(rng.uniform(-2, 2)))
        rep = weighted_am_gm(make_weighted_pair(lams, s, ratio, [a0] * len(lams), a0))
        assert abs(rep.lhs - rep.rhs) <= 1e-12 * rep.rhs
        seq = make_exponent_sequence([1.0 / l for l in lams], s, ratio)
        rep = young_check(seq, np.ones(len(lams)), 1.0)
        assert abs(rep.lhs - rep.rhs) <= 1e-12 * rep.rhs
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"scalar suite took {elapsed:.1f}s"
    _announce(1, "scalar inequalities, 10k instances each")


def test_criterion_02_infinite_product_oracle():
    rng = np.random.default_rng(1002)
    for _ in range(1_000):
        head = list(rng.uniform(0.0, 3.0, rng.integers(0, 8)))
        # sub-unit tails stay below 0.99 so the K = 1e4 partial product has
        # reached its limit to well within the comparison tolerance
        tail = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.99))
        value = product_eval(head, tail).value
        partial = float(np.prod(head)) * tail**10_000
        assert abs(value - partial) <= 1e-12 * max(1.0, abs(partial))
    _announce(2, "infinite products match partial-product limits")


def test_criterion_03_conjugate_product():
    from mpmath import mp, mpf

    mp.dps = 40
    product, previous, i = mpf(1), None, 1
    while previous is None or abs(product - previous) > mpf("1e-30"):
        previous = product
        product = product / (1 - mpf(2) ** (-i))
        i += 1
    oracle = float(product)

    seq = make_exponent_sequence([2.0], 0.5, 0.5)
    interval = conjugate_product(seq, rel_tol=1e-9)
    assert interval.contains(oracle)
    assert interval.contains(3.462746619)
    assert interval.rel_width <= 1e-9

    rng = np.random.default_rng(1003)
    for _ in range(300):
        iv = conjugate_product(random_sequence(rng))
        assert np.isfinite(iv.hi) and iv.lo > 0.0
    _announce(3, "certified conjugate products")


def test_criterion_04_xi_constant():
    assert abs(xi_constant(1) - 3.0 / np.sqrt(2.0)) <= 1e-12 * (3.0 / np.sqrt(2.0))
    _announce(4, "dimensional constant at n=1")


def test_criterion_05_filtration_suite():
    rng = np.random.default_rng(1005)
    for _ in range(1_000):
        space = random_space(rng, max_depth=4, branchings=(2, 3))
        f = rng.normal(size=space.n_leaves) * 2.0
        mat = cond_exp_matrix(space, f)
        m, n = rng.integers(0, space.depth + 1, 2)
        np.testing.assert_allclose(
            cond_exp(space, mat[n], m), mat[min(m, n)], rtol=1e-12, atol=1e-12
        )
        total = float(np.sum(space.leaf_probs * f))
        level = int(rng.integers(0, space.depth + 1))
        level_total = float(np.sum(space.leaf_probs * mat[level]))
        assert abs(level_total - total) <= 1e-12 * max(1.0, abs(total))
        q = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
        assert lp_norm(space, mat[level], q) <= lp_norm(space, f, q) * (1 + 1e-12)
        tau = sample_stopping_time(space, rng)
        np.testing.assert_allclose(
            stopped_value(space, f, tau),
            stopped_average_oracle(space, f, tau),
            rtol=1e-12,
            atol=1e-12,
        )
    _announce(5, "filtration laws and stopped values, 1k instances")


def test_criterion_06_stopping_time_counts():
    expected = {0: 2, 1: 5, 2: 26}
    for depth, count in expected.items():
        space = make_tree_space(depth, 2)
        assert count_stopping_times(space) == count
        times = list(enumerate_stopping_times(space))
        keys = {tau.values.tobytes() for tau in times}
        assert len(times) == len(keys) == count
        levels = list(range(depth + 1)) + [StoppingTime.INFINITE]
        brute = sum(
            1
            for values in itertools.product(levels, repeat=space.n_leaves)
            if is_stopping_time(space, StoppingTime(np.array(values)))
        )
        assert brute == count
    _announce(6, "stopping-time counts 2, 5, 26 with brute-force oracle")


def test_criterion_07_holder_suites():
    rng = np.random.default_rng(1007)
    for _ in range(10_000):
        space = random_space(rng, max_depth=3, branchings=(2, 3))
        seq = random_sequence(rng, max_head=4)
        fv = random_fvec(rng, space, seq)
        assert holder_integral_check(space, fv, seq).passed
        n = int(rng.integers(0, space.depth + 1))
        assert holder_conditional_check(space, fv, seq, n).passed
    for _ in range(1_000):
        space = random_space(rng, max_depth=3)
        p1, p2 = rng.uniform(1.2, 6.0, 2)
        seq = make_exponent_sequence([p1, p2], 0.0)
        f1, f2 = random_positive(rng, space, 7.0), random_positive(rng, space, 7.0)
        report = holder_integral_check(space, function_vector(space, [f1, f2]), seq)
        lhs, rhs = two_function_holder_oracle(space, f1, f2, p1, p2)
        assert abs(report.lhs - lhs) <= 1e-12 * max(1.0, lhs)
        assert abs(report.rhs - rhs) <= 1e-12 * max(1.0, rhs)
    _announce(7, "integral and conditional product inequalities, 10k instances")


def test_criterion_08_maximal_suite():
    rng = np.random.default_rng(1008)
    for _ in range(300):
        space = random_space(rng, max_depth=3)
        seq = random_sequence(rng, max_head=1, allow_finite=False)
        f = random_positive(rng, space)
        np.testing.assert_array_equal(
            gen_doob_maximal(space, FunctionVector((f,), None), seq),
            doob_maximal(space, f),
        )
        mask = random_leaf_mask(rng, space)
        ones_vec = FunctionVector(
            tuple(np.ones(space.n_leaves) for _ in range(seq.head_len)), mask
        )
        np.testing.assert_array_equal(gen_doob_maximal(space, ones_vec, seq), mask.astype(float))
    for _ in range(1_000):
        space = random_space(rng, max_depth=3)
        g = random_positive(rng, space, spread=8.0)
        sigma = random_positive(rng, space)
        q = float(rng.choice([1.5, 2.0, 4.0]))
        assert doob_inequality_check(space, g, q, sigma).passed
    _announce(8, "maximal reductions exact, weighted maximal bound, 1k instances")


def _acceptance_system(rng, max_depth=2):
    while True:
        space = random_space(rng, max_depth=max_depth, branchings=(2, 3))
        if count_stopping_times(space) <= 1000:
            break
    seq = random_sequence(rng, max_head=3)
    return random_weight_system(rng, space, seq, spread=3.0)


def test_criterion_09_first_theorem_harness():
    rng = np.random.default_rng(1009)
    for _ in range(200):
        ws = _acceptance_system(rng)
        space, seq = ws.space, ws.seq
        taus = list(enumerate_stopping_times(space))
        c_a = ap_constant(ws)
        for _ in range(2):
            fv = random_fvec(rng, space, seq)
            observed = 0.0
            for tau in taus:
                rep = verify_ap_to_testing(ws, fv, tau)
                assert rep.passed
                if rep.rhs > 0.0:
                    observed = max(observed, rep.lhs / rep.rhs)
            assert verify_testing_to_weak(ws, fv, observed).passed
            assert verify_weak_to_testing(ws, fv, c_a).passed
        assert verify_testing_to_ap(ws).passed
    for depth, branching in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        space = make_tree_space(depth, branching)
        ws = unit_weight_system(space, make_exponent_sequence([2.0], 0.5, 0.5))
        assert ap_constant(ws) == 1.0
        assert rh_constant(ws) == 1.0
        assert sp_constant(ws) == 1.0
    _announce(9, "first equivalence harness, 200 systems, exact unit constants")


def test_criterion_10_second_theorem_harness():
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(200):
        ws = _acceptance_system(rng)
        c_s = sp_constant(ws)
        c_rh = rh_constant(ws)
        gv = random_fvec(rng, ws.space, ws.seq)
        trace = sawyer_decomposition(ws, gv)
        invariants = sawyer_trace_invariants(ws, trace)
        assert all(invariants.values()), invariants
        report = verify_sp_to_strong(ws, gv, c_s, c_rh)
        assert report.passed and report.metadata["trace_pass"]
        estimate = estimate_best_constant("strong", ws, 6, 77)
        assert estimate <= report.constant * (1 + 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"second-theorem harness took {elapsed:.0f}s"
    _announce(10, "second equivalence harness, 200 systems with traces")
