"""Per-atom level processes against the dense leaf-matrix oracles, bit for bit.

Every level process is stored per atom (TreeSpace.atom_offsets); the
oracles in helpers build the same quantities as (depth+1, leaves) matrices
on the leaves, and every comparison is exact (NaN equal to NaN).
"""

import itertools

import numpy as np
import pytest

import martbench.filtration as filtration_mod
import martbench.theorems as theorems_mod
from martbench.exponents import make_exponent_sequence
from martbench.filtration import (
    StoppingTime,
    atom_means,
    cond_exp_atoms,
    cond_exp_matrix,
    enumerate_stopping_times,
    make_tree_space,
    sample_stopping_time,
    stopped,
)
from martbench.theorems import verify_testing_to_ap
from martbench.holder import (
    FunctionVector,
    holder_conditional_check,
    level_product_atoms,
    lp_norm,
)
from martbench.maximal import (
    doob_inequality_check,
    doob_maximal,
    gen_doob_maximal,
    gen_weighted_maximal,
    level_set_stopping_time,
)
from martbench.weights import make_weight_system

from helpers import (
    SHAPES,
    first_passage_time,
    ap_level_values_oracle,
    cond_exp_matrix_oracle,
    conditional_check_oracle,
    density_rows_oracle,
    level_products_oracle,
    random_leaf_mask,
    random_positive,
    shape_id,
    dense_stopped_oracle,
    dense_testing_table_oracle,
    ap_from_testing_oracle,
)


def random_space(rng, depth, branching):
    probs = rng.uniform(0.2, 1.0, branching**depth)
    return make_tree_space(depth, branching, probs / probs.sum() if probs.size > 1 else [1.0])


def test_atom_offsets():
    for depth, branching in SHAPES:
        space = make_tree_space(depth, branching)
        offsets = space.atom_offsets
        assert offsets == tuple(itertools.accumulate(
            (branching**n for n in range(depth + 1)), initial=0))
        assert offsets[-1] - offsets[-2] == space.n_leaves
        # the repeats of expand_levels: every level's atoms hold all the leaves once
        repeats = filtration_mod._tree_shape(depth, branching).atom_leaves
        assert repeats.shape == (offsets[-1],) and not repeats.flags.writeable
        for n in space.levels:
            assert (space.level(repeats, n) == space.atom_size(n)).all()
        atoms = np.arange(offsets[-1])
        for n in space.levels:
            np.testing.assert_array_equal(space.level(atoms, n),
                                          np.arange(offsets[n], offsets[n + 1]))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_expand_levels_puts_each_atom_on_its_leaves(shape):
    space = make_tree_space(*shape)
    rng = np.random.default_rng(1)
    stack = rng.random((2, 3, space.atom_offsets[-1]))
    for atoms in (stack[0, 0], stack, stack < 0.5):  # 1-D, a (2, 3) stack, bools
        leaves = space.expand_levels(atoms)
        assert leaves.shape == atoms.shape[:-1] + (space.depth + 1, space.n_leaves)
        assert leaves.dtype == atoms.dtype
        for n in space.levels:
            np.testing.assert_array_equal(leaves[..., n, :],
                                          space.expand(space.level(atoms, n), n))


# sums of these overflow (1e308 pairs), cancel to NaN (inf - inf) and keep or
# lose the sign of zero (-0.0 runs)
RUN_ENTRIES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 1.5, -2.25])


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("size", [*range(1, 10), 16, 27])
def test_run_sums_are_numpys_reduce_bit_for_bit(size):
    # 1 to 2,048 runs (the slices start at 128), one vector and a (3, leaves)
    # stack, returned fresh and written into strided views of a wider array,
    # as _level_masses writes one level of a stack
    rng = np.random.default_rng(size)
    for runs, batch in itertools.product((1, 127, 128, 2048), ((), (3,))):
        shape = batch + (runs * size,)
        cases = (rng.standard_normal(shape), rng.choice(RUN_ENTRIES, shape),
                 rng.choice([1e308, -1e308, -0.0], shape), rng.choice([0.0, -0.0], shape))
        for x in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.add.reduce(x.reshape(batch + (runs, size)), axis=-1)
                assert_same_bits(filtration_mod._run_sums(x, size), want)
                wide = np.full(batch + (3 * runs + 2,), 7.0)
                for view in (wide[..., 2:2 + runs], wide[..., 1:1 + 3 * runs:3]):
                    assert filtration_mod._run_sums(x, size, out=view) is view
                    assert_same_bits(view, want)


def test_run_sums_of_a_mask_count_as_numpy_does():
    rng = np.random.default_rng(10)
    for size, runs in itertools.product((1, 2, 3, 9), (1, 128, 2048)):
        mask = rng.random((3, runs * size)) < 0.5
        got = filtration_mod._run_sums(mask, size)
        want = np.add.reduce(mask.reshape(3, runs, size), axis=-1)
        assert got.dtype == want.dtype and got.dtype.kind == "i"
        np.testing.assert_array_equal(got, want)


def assert_same_floats(got, want):
    """Equal shapes and values, NaN equal to NaN, and the same sign of zero."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_level_sup_is_the_maximum_of_the_expanded_levels():
    # depths 0-4, branching 2 and 3, one process and (B,) and (2, 3) stacks,
    # nonnegative values with zeros of both signs, ties, inf and NaN
    rng = np.random.default_rng(7)
    values = np.array([0.0, -0.0, 0.5, 1.0, 1.0, 3.0, np.inf, np.nan])
    for depth, branching in itertools.product(range(5), (2, 3)):
        space = make_tree_space(depth, branching)
        for batch, _ in itertools.product([(), (4,), (2, 3)], range(20)):
            atoms = rng.choice(values, batch + (space.atom_offsets[-1],))
            sup = space.level_sup(atoms)
            assert_same_floats(sup, space.expand_levels(atoms).max(axis=-2))
            assert not np.shares_memory(sup, atoms)


def test_first_passages_are_the_expanded_first_passage_times():
    # depths 0-4, branching 2 and 3, values with zeros of both signs, ties,
    # inf and NaN; the thresholds include 0, -0, a subnormal, the values
    # themselves, 2**1024 (inf) and NaN
    rng = np.random.default_rng(9)
    values = np.array([0.0, -0.0, 5e-324, 0.5, 1.0, 1.0, 3.0, np.inf, np.nan])
    with np.errstate(over="ignore"):
        top = np.ldexp(1.0, 1024)
    thresholds = np.array([0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, np.nextafter(1.0, 0.0), top,
                           np.nan])
    for depth, branching in itertools.product(range(5), (2, 3)):
        space = make_tree_space(depth, branching)
        for _ in range(20):
            atoms = rng.choice(values, space.atom_offsets[-1])
            rows = space.expand_levels(atoms)
            got = space.first_passages(atoms, thresholds)
            assert got.shape == (thresholds.size, space.n_leaves) and got.dtype == np.int64
            for t, row in zip(thresholds, got):
                np.testing.assert_array_equal(row, first_passage_time(space, rows, t).values)
            assert space.first_passages(atoms, thresholds[:0]).shape == (0, space.n_leaves)


def test_level_set_stopping_time_is_the_dense_first_passage():
    # depths 0-4, branching 2 and 3, masked and unmasked vectors, finite and
    # infinite families, components of 1e300 whose products overflow (NaN
    # under a vanishing mask factor); the thresholds 0, -0, a subnormal, inf,
    # NaN and a value the maximal function takes: the first passage read on
    # atoms is the dense oracle's on the expanded level products, bit for bit
    rng = np.random.default_rng(14)
    sequences = [make_exponent_sequence([2.5, 3.0, 4.0], 0.2, 0.5),
                 make_exponent_sequence([2.5, 3.0, 4.0], 0.0)]
    for depth, branching in itertools.product(range(5), (2, 3)):
        space = make_tree_space(depth, branching)
        for seq, scale, masked in itertools.product(sequences, (1.0, 1e300), (False, True)):
            active = tuple(random_positive(rng, space, 8.0) * scale for _ in range(2))
            fvec = FunctionVector(active, random_leaf_mask(rng, space) if masked else None)
            with np.errstate(over="ignore", invalid="ignore"):
                rows = level_products_oracle(space, fvec, seq)
                taken = float(rng.choice(gen_doob_maximal(space, fvec, seq)))
            for t in (0.0, -0.0, 5e-324, np.inf, np.nan, taken):
                want = first_passage_time(space, rows, t).values
                got = level_set_stopping_time(space, fvec, seq, t).values
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        stacked = FunctionVector(active, np.ones((2, space.n_leaves), bool))
        with pytest.raises(ValueError, match="expected one vector, got a stack of 2"):
            level_set_stopping_time(space, stacked, seq, 1.0)
        with pytest.raises(ValueError):
            comps = (np.ones((2, space.n_leaves)),)
            level_set_stopping_time(space, FunctionVector(comps), seq, 1.0)


def test_stopped_reads_the_atom_the_dense_pick_reads():
    # every kept time (up to 9 leaves) and sampled times of larger trees:
    # the per-atom pick is the leaf matrix's entry at (tau(x), x), and
    # `otherwise` (a scalar or a leaf vector) where tau is infinite
    rng = np.random.default_rng(10)
    for depth, branching in [(0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (4, 2), (3, 3)]:
        space = make_tree_space(depth, branching)
        atoms = rng.choice([0.0, -0.0, 0.5, 2.0, np.inf, np.nan], space.atom_offsets[-1])
        rows = space.expand_levels(atoms)
        other = rng.random(space.n_leaves)
        if space.n_leaves <= 9:
            taus = list(enumerate_stopping_times(space))
        else:
            taus = [sample_stopping_time(space, rng) for _ in range(50)]
        taus.append(StoppingTime(np.full(space.n_leaves, StoppingTime.INFINITE)))
        for tau in taus:
            for otherwise in (1.0, other):
                assert_same_floats(stopped(space, atoms, tau, otherwise),
                                   dense_stopped_oracle(space, rows, tau, otherwise))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_maximal_functions_match_the_dense_oracle(shape):
    # each supremum over levels, read on atoms, against the maximum of the
    # oracle's leaf matrix
    rng = np.random.default_rng(8)
    space = random_space(rng, *shape)
    f = rng.uniform(-4.0, 4.0, space.n_leaves)
    g, sigma = random_positive(rng, space, 1e3), random_positive(rng, space, 1e3)
    assert_same_floats(doob_maximal(space, f), np.abs(cond_exp_matrix_oracle(space, f)).max(0))
    seq = make_exponent_sequence([2.5, 3.0, 4.0], 0.2, 0.5)
    assert_same_floats(gen_weighted_maximal(space, FunctionVector((g, f**2)), [sigma], seq),
                       (cond_exp_matrix_oracle(space, g, sigma)
                        * cond_exp_matrix_oracle(space, f**2)).max(0))
    sup = cond_exp_matrix_oracle(space, g, sigma).max(0)
    assert doob_inequality_check(space, g, 2.0, sigma).lhs == lp_norm(space, sup, 2.0, sigma)
    for fvec, seq in product_cases(rng, space):
        with np.errstate(over="ignore", invalid="ignore"):
            want = level_products_oracle(space, fvec, seq).max(-2)
        assert_same_floats(gen_doob_maximal(space, fvec, seq), want)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_cond_exp_atoms_match_the_dense_oracle(shape):
    rng = np.random.default_rng(2)
    space = random_space(rng, *shape)
    f = random_positive(rng, space, 1e3)
    sigma = random_positive(rng, space, 1e3)
    stack = np.array([random_positive(rng, space) for _ in range(3)])
    for args in ((f,), (f, sigma), (stack,), (stack, sigma), (np.zeros(space.n_leaves),)):
        atoms = cond_exp_atoms(space, *args)
        want = cond_exp_matrix_oracle(space, *args)
        assert atoms.shape == np.shape(args[0])[:-1] + (space.atom_offsets[-1],)
        np.testing.assert_array_equal(space.expand_levels(atoms), want)
        np.testing.assert_array_equal(cond_exp_matrix(space, *args), want)
        if np.ndim(args[0]) == 1:
            for n in space.levels:
                np.testing.assert_array_equal(atom_means(space, *args[:1], n, *args[1:]),
                                              space.level(atoms, n))


def product_cases(rng, space):
    """(vector, sequence) cases: unmasked, masked, under a (4, leaves) mask
    stack and under that stack intersected with the mask, finite families
    with head padding and infinite tails, and components whose products
    overflow to inf (inf times a vanishing mask factor is NaN)."""
    infinite = make_exponent_sequence([2.5, 3.0, 4.0], 0.2, 0.5)
    finite = make_exponent_sequence([2.5, 3.0, 4.0], 0.0)
    comps = tuple(random_positive(rng, space, 1e3) for _ in range(2))
    huge = (np.full(space.n_leaves, 1e200), random_positive(rng, space) * 1e200)
    mask = random_leaf_mask(rng, space)
    stack = np.array([random_leaf_mask(rng, space, allow_empty=True) for _ in range(4)])
    for seq, active in itertools.product((infinite, finite), (comps, huge, ())):
        yield FunctionVector(active), seq
        yield FunctionVector(active, mask), seq
        yield FunctionVector(active, stack), seq
        yield FunctionVector(active, mask & stack), seq


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_level_product_atoms_match_the_dense_oracle(shape):
    rng = np.random.default_rng(3)
    space = random_space(rng, *shape)
    seen = set()
    for fvec, seq in product_cases(rng, space):
        with np.errstate(over="ignore", invalid="ignore"):
            atoms = level_product_atoms(space, fvec, seq)
            want = level_products_oracle(space, fvec, seq)
        np.testing.assert_array_equal(space.expand_levels(atoms), want)
        seen.update({"inf"} if np.isinf(want).any() else set())
        seen.update({"nan"} if np.isnan(want).any() else set())
    assert seen == {"inf", "nan"} or space.depth == 0 and seen >= {"inf"}


def weight_systems(rng, space):
    """Seeded systems with an infinite and a finite tail, and one whose
    density product overflows to inf (three sigma_i of 1e150 on some leaves)."""
    for tail in ((0.2, 0.5), (0.0, 0.5)):
        seq = make_exponent_sequence([2.5, 3.0, 4.0], *tail)
        weights = [random_positive(rng, space, 4.0) for _ in range(2)]
        yield make_weight_system(space, seq, weights, random_positive(rng, space, 4.0))
    seq = make_exponent_sequence([2.0, 2.0, 2.0], 0.2, 0.5)
    w = np.where(rng.random(space.n_leaves) < 0.5, 1e-150, 1.0)
    w[0] = 1e-150
    yield make_weight_system(space, seq, [w] * 3, random_positive(rng, space))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_weight_system_atoms_match_the_dense_oracle(shape):
    rng = np.random.default_rng(4)
    space = random_space(rng, *shape)
    overflowed = False
    for ws in weight_systems(rng, space):
        with np.errstate(over="ignore", invalid="ignore"):
            density = density_rows_oracle(ws)
            want = (ap_level_values_oracle(ws), density, dense_testing_table_oracle(ws))
        np.testing.assert_array_equal(space.expand_levels(ws.ap_atoms), want[0])
        np.testing.assert_array_equal(space.expand_levels(ws.density_atoms), want[1])
        np.testing.assert_array_equal(ws.testing_table, want[2])
        assert ws.ap_max == want[0].max() or np.isnan(ws.ap_max) and np.isnan(want[0].max())
        overflowed |= bool(np.isinf(density).any())
    assert overflowed


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_testing_reward_matches_the_dense_oracle(shape):
    rng = np.random.default_rng(5)
    space = random_space(rng, *shape)
    for ws in weight_systems(rng, space):
        p = 1.0 / ws.seq.aggregate_reciprocal
        for fvec in (fvec for fvec, _ in product_cases(rng, space) if fvec.mask is None):
            theorems_mod._testing_parts.cache_clear()
            with np.errstate(over="ignore", invalid="ignore"):
                atoms, _, reward, _ = theorems_mod._testing_parts(ws, fvec)
                rows = level_products_oracle(space, fvec, ws.seq)
                want = space.leaf_probs * ws.v * rows**p
            np.testing.assert_array_equal(space.expand_levels(atoms), rows)
            np.testing.assert_array_equal(reward, want)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_conditional_check_matches_the_leaf_oracle(shape):
    rng = np.random.default_rng(6)
    space = random_space(rng, *shape)
    verdicts = set()
    for fvec, seq in product_cases(rng, space):
        if fvec.mask is not None and fvec.mask.ndim > 1:
            continue
        for n in space.levels:
            with np.errstate(over="ignore", invalid="ignore"):
                lhs, rhs, leaf = conditional_check_oracle(space, fvec, seq, n)
            report = holder_conditional_check(space, fvec, seq, n)
            assert (report.lhs, report.rhs) == (lhs, rhs) or np.isnan([lhs, rhs]).any()
            assert report.metadata["atom"] == leaf // space.atom_size(n)
            verdicts.add(report.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_testing_to_ap_matches_the_level_by_level_oracle(shape, monkeypatch):
    # every level's ratios from one pass per norm factor, against the former
    # per-level loop on numpy's own sums: the per-atom ratios, the observed
    # constant and the verdict, bit for bit (NaN equal to NaN).  The RH
    # constant, a scan of its own, is fixed at 1 and 4
    rng = np.random.default_rng(11)
    space = random_space(rng, *shape)
    verdicts = set()
    for ws, c_rh in itertools.product(list(weight_systems(rng, space)), (1.0, 4.0)):
        monkeypatch.setattr(theorems_mod, "rh_constant", lambda ws, family: c_rh)
        ratios, c_test_observed, passed = ap_from_testing_oracle(ws, c_rh)
        assert_same_floats(theorems_mod._testing_ap_ratios(ws), ratios)
        report = verify_testing_to_ap(ws)
        assert report.metadata["c_rh"] == c_rh
        assert_same_floats(np.float64(report.metadata["c_test_observed"]),
                           np.float64(c_test_observed))
        assert report.passed == passed
        verdicts.add(passed)
    assert verdicts == {True, False}
