import gc
import itertools
import json
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import martbench.filtration as filtration_mod
from martbench.filtration import (
    ENUMERATION_CAP,
    KEPT_FAMILY_TIMES,
    EnumerationCapError,
    StoppingTime,
    as_leaf_mask,
    as_leaf_vector,
    cond_exp,
    cond_exp_atoms,
    cond_exp_matrix,
    count_stopping_times,
    enumerate_stopping_times,
    is_stopped_measurable,
    is_stopping_time,
    make_tree_space,
    sample_stopping_time,
    space_from_json,
    stopped_value,
    stopping_time_from_json,
)
from martbench.exponents import make_exponent_sequence
from martbench.holder import lp_norm, trial_vector
from martbench.theorems import verify_ap_to_testing
from martbench.weights import unit_weight_system

from helpers import (
    SHAPES,
    first_passage_time,
    flat_index_oracle,
    random_space,
    shape_id,
    shared_level_oracle,
    stopped_average_oracle,
)

INF = StoppingTime.INFINITE


class TestTreeSpace:
    def test_uniform_depth_one(self):
        space = make_tree_space(1, 2, "uniform")
        assert space.n_leaves == 2
        np.testing.assert_array_equal(space.leaf_probs, [0.5, 0.5])

    def test_atoms_refine(self):
        space = make_tree_space(2, 2)
        assert space.atom_slice(1, 0) == slice(0, 2)
        assert space.atom_slice(1, 1) == slice(2, 4)
        assert space.atom_size(2) == 1

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            make_tree_space(1, 2, [0.3, 0.8])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_tree_space(1, 2, [0.0, 1.0])

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            make_tree_space(21, 2)

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_atom_index_of_listed_leaves_is_the_atom_holding_each(self, shape):
        # per leaf of the row, or per (level, leaf) entry listed: the
        # level-n atom through the leaf, one level at a time
        space = make_tree_space(*shape)
        rng = np.random.default_rng([34, *shape])
        levels = rng.integers(0, space.depth + 1, size=(3, space.n_leaves))
        leaves = rng.integers(0, space.n_leaves, size=50)
        entry = rng.integers(0, space.depth + 1, size=50)
        want = [space.atom_offsets[n] + x // space.atom_size(n) for n, x in zip(entry, leaves)]
        np.testing.assert_array_equal(space.atom_index(entry, leaves), want)
        rows = [[space.atom_offsets[n] + x // space.atom_size(n) for x, n in enumerate(row)]
                for row in levels.tolist()]
        np.testing.assert_array_equal(space.atom_index(levels), rows)
        np.testing.assert_array_equal(space.atom_index(levels, space.leaf_index), rows)

    def test_shared_level_is_the_deepest_atom_holding_both_neighbours(self):
        for depth, branching in [(0, 2), (1, 2), (3, 2), (2, 3), (4, 3), (2, 5)]:
            space = make_tree_space(depth, branching)
            expected = [max(n for n in space.levels
                            if x // space.atom_size(n) == (x + 1) // space.atom_size(n))
                        for x in range(space.n_leaves - 1)]
            np.testing.assert_array_equal(space.shared_level, np.array(expected, dtype=np.uint64),
                                          strict=True)

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_shared_level_is_kept_per_shape_and_matches_the_modulo_oracle(self, shape):
        # SHAPES holds depth 0 (no pairs) and (12, 2)
        space = make_tree_space(*shape)
        np.testing.assert_array_equal(space.shared_level, shared_level_oracle(space), strict=True)
        assert not space.shared_level.flags.writeable
        probs = np.full(space.n_leaves, 1.0 / space.n_leaves)
        assert make_tree_space(*shape, probs).shared_level is space.shared_level

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_explicit_space_reads_the_tables_of_its_shape(self, shape):
        space = make_tree_space(*shape)
        explicit = make_tree_space(*shape, np.full(space.n_leaves, 1.0 / space.n_leaves))
        assert explicit is not space
        for name in ("atom_offsets", "leaf_index", "shared_level"):
            assert getattr(explicit, name) is getattr(space, name), name

    def test_evicting_a_shape_frees_its_tables_and_family(self):
        # the 17th shape pushes the first out, and nothing else holds it: it
        # and its tables and family go by reference count, no cycle collector
        filtration_mod._tree_shape.cache_clear()
        first = filtration_mod._tree_shape(2, 2)
        space = first.space
        tables = [first.leaf_index, first.atom_leaves, first.atom_levels, *first.level_starts,
                  first.shared_level, first.kept_family, space, space.leaf_probs,
                  space.atom_masses]
        assert space.atom_offsets is first.atom_offsets and space.leaf_index is first.leaf_index
        assert first.kept_family is not None
        refs = [weakref.ref(x) for x in (first, *tables)]
        del first, space, tables
        gc.disable()
        try:
            for branching in range(2, 18):
                filtration_mod._tree_shape(1, branching)
            assert filtration_mod._tree_shape.cache_info().currsize == 16
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_numpy_integer_shape_is_held_as_int(self):
        # numpy integers are accepted and held as Python ints, so a depth of
        # np.int64(64) is 2**64 leaves (refused), not a wrapped-around 0
        space = make_tree_space(np.int64(2), np.int32(3))
        assert (space.depth, space.branching, space.n_leaves) == (2, 3, 9)
        assert type(space.depth) is int and type(space.branching) is int
        assert space_from_json(json.loads(json.dumps(space.to_json()))).digest == space.digest
        with pytest.raises(ValueError, match="exceeds the"):
            make_tree_space(np.int64(64), 2)

    def test_digest_is_pinned_and_hashed_once(self):
        space = make_tree_space(2, 2, [0.1, 0.2, 0.3, 0.4])
        assert space.digest == "54cc2be008dc"
        assert vars(space)["digest"] == "54cc2be008dc"  # cached on the instance
        assert make_tree_space(1, 3).digest == "11e71af7660d"

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_uniform_space_is_kept_per_shape(self, shape):
        # one read-only space per shape, equal to a fresh build, so that its
        # cached atom masses, digest and leaf index are built once
        depth, branching = shape
        space = make_tree_space(depth, branching)
        assert make_tree_space(np.int64(depth), branching, "uniform") is space
        assert space_from_json({"depth": depth, "branching": branching}) is space
        n = branching**depth
        fresh = filtration_mod.TreeSpace(depth, branching, np.full(n, 1.0 / n))
        np.testing.assert_array_equal(space.leaf_probs, fresh.leaf_probs, strict=True)
        assert space.digest == fresh.digest
        np.testing.assert_array_equal(space.atom_masses, fresh.atom_masses, strict=True)
        assert make_tree_space(depth, branching).atom_masses is space.atom_masses
        assert not space.leaf_probs.flags.writeable
        with pytest.raises(ValueError):
            space.leaf_probs[0] = 1.0

    def test_explicit_probabilities_give_a_fresh_space(self):
        kept = make_tree_space(2, 2)
        equal = [0.25] * 4
        spaces = [make_tree_space(2, 2, equal), make_tree_space(2, 2, np.array(equal)),
                  space_from_json({"depth": 2, "branching": 2, "leaf_probs": equal})]
        assert len({id(s) for s in [kept, *spaces]}) == 4
        for space in spaces:
            np.testing.assert_array_equal(space.leaf_probs, kept.leaf_probs, strict=True)
            assert space.digest == kept.digest

    def test_bad_shapes_raise_on_every_call(self):
        # validation runs before the kept-space lookup: True hashes as 1, and
        # (1, 2) is kept by then
        make_tree_space(1, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an integer"):
                make_tree_space(True, 2)
            with pytest.raises(ValueError, match="must be >= 0"):
                make_tree_space(-1, 2)
            with pytest.raises(ValueError, match="exceeds the"):
                make_tree_space(21, 2)
        assert filtration_mod._tree_shape.cache_info().maxsize == 16

    @pytest.mark.parametrize("depth, branching", [(20_000, 2), (10**8, 3)])
    def test_deep_tree_is_refused_before_its_leaf_count(self, depth, branching):
        # past depth 20 every tree has more than 2^20 leaves: refused before
        # the power (3**(10**8) takes minutes), its message naming the shape
        started = time.monotonic()
        with pytest.raises(ValueError) as raised:
            make_tree_space(depth, branching)
        assert time.monotonic() - started < 1.0
        assert str(raised.value) == (f"a tree of depth {depth} and branching {branching} "
                                     "exceeds the 1048576 leaf guard")

    @pytest.mark.parametrize("depth, branching, message", [
        (1, 10**5000, "a tree of depth 1 and branching about 10^5000 exceeds the 1048576 "
                      "leaf guard"),
        (10**5000, 2, "a tree of depth about 10^5000 and branching 2 exceeds the 1048576 "
                      "leaf guard"),
        (-10**5000, 2, "depth -(about 10^5000) must be >= 0"),
        (1, -10**5000, "branching -(about 10^5000) must be >= 2"),
    ], ids=["branching", "depth", "negative-depth", "negative-branching"])
    def test_shape_past_the_int_string_limit_is_named_in_the_message(self, depth, branching,
                                                                     message):
        # Python refuses to convert an int of more than 4,300 digits to a
        # string: the message writes such a number as "about 10^k"
        with pytest.raises(ValueError) as raised:
            make_tree_space(depth, branching)
        assert str(raised.value) == message

    def test_json_round_trip(self):
        space = make_tree_space(2, 3)
        again = space_from_json(space.to_json())
        assert again.depth == 2 and again.branching == 3
        np.testing.assert_array_equal(again.leaf_probs, space.leaf_probs)


class TestCondExp:
    def test_root_average(self):
        space = make_tree_space(1, 2)
        np.testing.assert_allclose(cond_exp(space, np.array([1.0, 3.0]), 0), [2.0, 2.0])

    def test_finest_level_is_identity(self):
        rng = np.random.default_rng(0)
        space = make_tree_space(2, 2)
        f = rng.normal(size=4)
        np.testing.assert_array_equal(cond_exp(space, f, 2), f)

    def test_nonuniform_average(self):
        space = make_tree_space(1, 2, [0.25, 0.75])
        np.testing.assert_allclose(cond_exp(space, np.array([4.0, 0.0]), 0), [1.0, 1.0])

    def test_level_out_of_range(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            cond_exp(space, np.zeros(2), 3)

    def test_weighted_reduces_to_plain(self):
        rng = np.random.default_rng(1)
        space = make_tree_space(2, 2)
        g = rng.normal(size=4)
        ones = np.ones(4)
        for n in space.levels:
            np.testing.assert_allclose(
                cond_exp(space, g, n, ones), cond_exp(space, g, n)
            )

    def test_weighted_example(self):
        space = make_tree_space(1, 2)
        out = cond_exp(space, np.array([3.0, 1.0]), 0, np.array([1.0, 3.0]))
        np.testing.assert_allclose(out, [1.5, 1.5])

    def test_weighted_finest_level(self):
        space = make_tree_space(1, 2)
        g = np.array([3.0, 1.0])
        np.testing.assert_array_equal(
            cond_exp(space, g, 1, np.array([1.0, 3.0])), g
        )

    def test_weighted_requires_positive(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            cond_exp(space, np.ones(2), 0, np.array([1.0, 0.0]))


    def test_matrix_rows_are_bit_identical(self):
        # the one-pass matrix against cond_exp and against the per-level
        # formula num / den, with and without a change of measure
        rng = np.random.default_rng(3)
        for _ in range(100):
            space = random_space(rng, max_depth=4)
            f = rng.normal(size=space.n_leaves) * 5.0
            sigma = np.exp(rng.uniform(-3.0, 3.0, space.n_leaves))
            for s in (None, sigma):
                mat = cond_exp_matrix(space, f, s)
                w = space.leaf_probs if s is None else space.leaf_probs * s
                num = space.leaf_probs * f if s is None else space.leaf_probs * f * s
                for n in space.levels:
                    assert np.array_equal(mat[n], cond_exp(space, f, n, s))
                    if n < space.depth:
                        ref = space.atom_sums(num, n) / space.atom_sums(w, n)
                        assert np.array_equal(mat[n], space.expand(ref, n))
                assert np.array_equal(mat[space.depth], f)

    def test_matrix_batch_axis_is_row_by_row(self):
        # a (B, leaves) stack gives one matrix per row, bit for bit
        rng = np.random.default_rng(4)
        for _ in range(30):
            space = random_space(rng, max_depth=3)
            fs = rng.normal(size=(5, space.n_leaves))
            sigma = np.exp(rng.uniform(-3.0, 3.0, space.n_leaves))
            for s in (None, sigma):
                stack = cond_exp_matrix(space, fs, s)
                assert stack.shape == (5, space.depth + 1, space.n_leaves)
                for f, mat in zip(fs, stack):
                    assert np.array_equal(mat, cond_exp_matrix(space, f, s))

    def test_cond_exp_atoms_holds_no_leaf_vector_of_sums(self):
        # the numerator's level sums go straight into the output: a call
        # holds the numerator and the output (about 2 leaf vectors on a
        # binary tree) and nothing of their size besides; a change of
        # measure adds its leaf masses and their level sums
        space = make_tree_space(14, 2)
        f = np.random.default_rng(5).uniform(0.5, 2.0, space.n_leaves)
        leaf = space.n_leaves * 8
        space.atom_masses  # kept by the space, built outside the trace
        for sigma, extra in ((None, 0), (f, 2)):
            tracemalloc.start()
            try:
                atoms = cond_exp_atoms(space, f, sigma)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert atoms.nbytes < 2 * leaf
            assert peak < atoms.nbytes + (1.5 + extra) * leaf

    def test_space_holds_read_only_copies(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        space = make_tree_space(2, 2, probs)
        probs[:] = 0.25  # the caller's array stays writable and is not shared
        np.testing.assert_array_equal(space.leaf_probs, [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(space.level(space.atom_masses, 1), [0.3, 0.7])
        for arr in (space.leaf_probs, space.atom_masses):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestMartingaleLaws:
    def test_tower_conservation_contraction(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            space = random_space(rng, max_depth=4)
            f = rng.normal(size=space.n_leaves) * 3.0
            mat = cond_exp_matrix(space, f)
            m, n = rng.integers(0, space.depth + 1, 2)
            tower = cond_exp(space, mat[n], m)
            np.testing.assert_allclose(tower, mat[min(m, n)], rtol=1e-12, atol=1e-12)
            total = np.sum(space.leaf_probs * f)
            for level in space.levels:
                level_total = np.sum(space.leaf_probs * mat[level])
                assert abs(level_total - total) <= 1e-12 * max(1.0, abs(total))
            q = float(rng.choice([1.0, 1.5, 2.0, 4.0]))
            for level in space.levels:
                assert lp_norm(space, mat[level], q) <= lp_norm(space, f, q) * (1 + 1e-12)


class TestStoppingTimes:
    def test_constant_zero_is_adapted(self):
        space = make_tree_space(1, 2)
        assert is_stopping_time(space, StoppingTime(np.array([0, 0])))

    def test_peeking_is_rejected(self):
        space = make_tree_space(1, 2)
        assert not is_stopping_time(space, StoppingTime(np.array([0, 1])))

    def test_partial_infinite_is_adapted(self):
        space = make_tree_space(1, 2)
        assert is_stopping_time(space, StoppingTime(np.array([1, INF])))

    def test_matches_per_level_atom_scan(self):
        # reference: {tau = n} is a union of level-n atoms for each n < depth
        def per_level(space, vals):
            if not np.all((vals == INF) | ((vals >= 0) & (vals <= space.depth))):
                return False
            return all(
                np.all(np.isin(
                    (vals == n).reshape(space.n_atoms(n), -1).sum(axis=1),
                    [0, space.atom_size(n)],
                ))
                for n in range(space.depth)
            )

        rng = np.random.default_rng(7)
        verdicts = set()
        for _ in range(300):
            space = random_space(rng, max_depth=4)
            tau = sample_stopping_time(space, rng)
            vals = tau.values.copy()
            for x in rng.integers(space.n_leaves, size=int(rng.integers(0, 3))):
                vals[x] = rng.integers(-2, space.depth + 2)
            ok = per_level(space, vals)
            verdicts.add(ok)
            assert is_stopping_time(space, StoppingTime(vals)) == ok
        assert verdicts == {True, False}

    def test_out_of_range_values(self):
        space = make_tree_space(1, 2)
        assert not is_stopping_time(space, StoppingTime(np.array([5, 5])))

    def test_float_values_are_rejected(self):
        space = make_tree_space(1, 2)
        for vals in ([0.5, 0.5], [0.0, 0.0], [True, True]):
            assert not is_stopping_time(space, StoppingTime(np.array(vals)))

    def test_values_are_read_only_copies(self):
        vals = np.array([1, INF])
        tau = StoppingTime(vals)
        vals[0] = 0
        np.testing.assert_array_equal(tau.values, [1, INF])
        for arr in (tau.values, tau.finite):
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_non_adapted_is_rejected_on_every_call(self):
        space = make_tree_space(1, 2)
        tau = StoppingTime(np.array([0, 1]))
        assert [is_stopping_time(space, tau) for _ in range(3)] == [False] * 3
        with pytest.raises(ValueError):
            stopped_value(space, np.ones(2), tau)

    def test_verdict_is_kept_per_tree_shape(self):
        # both spaces have 4 leaves: {tau = 1} splits a level-1 atom of the
        # binary depth-2 tree, while on the depth-1 tree level 1 is the leaves
        binary, flat = make_tree_space(2, 2), make_tree_space(1, 4)
        tau = StoppingTime(np.array([1, INF, 1, 1]))
        for _ in range(2):
            assert is_stopping_time(flat, tau) and not is_stopping_time(binary, tau)
        tau = StoppingTime(np.array([1, 1, 2, 2]))
        for _ in range(2):
            assert is_stopping_time(binary, tau) and not is_stopping_time(flat, tau)

    def test_counts(self):
        for depth, expected in [(0, 2), (1, 5), (2, 26)]:
            assert count_stopping_times(make_tree_space(depth, 2)) == expected

    def test_enumeration_matches_count_no_duplicates(self):
        for depth in (0, 1, 2):
            space = make_tree_space(depth, 2)
            times = list(enumerate_stopping_times(space))
            keys = {tau.values.tobytes() for tau in times}
            assert len(times) == len(keys) == count_stopping_times(space)
            assert all(is_stopping_time(space, tau) for tau in times)

    def test_depth_one_exact_family(self):
        space = make_tree_space(1, 2)
        got = {tuple(tau.values) for tau in enumerate_stopping_times(space)}
        assert got == {(0, 0), (1, 1), (1, INF), (INF, 1), (INF, INF)}

    def test_brute_force_oracle(self):
        # every leaf-value map, filtered by adaptedness
        for depth in (1, 2):
            space = make_tree_space(depth, 2)
            levels = list(range(depth + 1)) + [INF]
            brute = {
                values
                for values in itertools.product(levels, repeat=space.n_leaves)
                if is_stopping_time(space, StoppingTime(np.array(values)))
            }
            enumerated = {tuple(tau.values) for tau in enumerate_stopping_times(space)}
            assert enumerated == brute

    def test_enumeration_cap(self):
        space = make_tree_space(5, 2)
        with pytest.raises(EnumerationCapError):
            next(enumerate_stopping_times(space))

    def test_sampling_is_adapted_and_deterministic(self):
        space = make_tree_space(3, 2)
        draws_a = [
            sample_stopping_time(space, np.random.default_rng(5)).values.tobytes()
            for _ in range(1)
        ]
        draws_b = [
            sample_stopping_time(space, np.random.default_rng(5)).values.tobytes()
            for _ in range(1)
        ]
        assert draws_a == draws_b
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert is_stopping_time(space, sample_stopping_time(space, rng))

    def test_json_round_trip(self):
        space = make_tree_space(1, 2)
        tau = StoppingTime(np.array([1, INF]))
        doc = tau.to_json()
        assert doc == {"runs": [0, 1, 1]}
        again = stopping_time_from_json(space, doc)
        np.testing.assert_array_equal(again.values, tau.values)

    def test_json_reads_the_leaf_form(self):
        space = make_tree_space(2, 2)
        again = stopping_time_from_json(space, {"values": [1, 1, "inf", 2]})
        np.testing.assert_array_equal(again.values, [1, 1, INF, 2])
        assert again.to_json() == {"runs": [0, 2, 1, 3, 4, 2]}

    def test_json_values_are_ints_and_inf_byte_for_byte(self):
        # every level 0..20 and INFINITE, int32 values too: the JSON text is
        # that of the flat list of Python ints, one (start, end, level)
        # triple per maximal run and none for an INFINITE leaf
        values = np.array([*range(21), INF, 0, 0, INF, INF, 20])
        want = [*(x for n in range(21) for x in (n, n + 1, n)), 22, 24, 0, 26, 27, 20]
        for dtype in (np.int64, np.int32):
            doc = StoppingTime(values.astype(dtype)).to_json()
            assert json.dumps(doc) == json.dumps({"runs": want})
            assert all(type(x) is int for x in doc["runs"])

    def test_json_rejects_non_adapted(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            stopping_time_from_json(space, {"values": [0, 1]})

    @pytest.mark.parametrize("values", [
        [0.7, 0.7], [1.9, 1.2], [1.0, 1.0], [True, "inf"], ["1", "inf"], [None, 1],
        [2, 2], [-2, 1], [2**70, 1], ["Inf", 1],
    ])
    def test_json_accepts_only_levels_and_inf(self, values):
        # int() would truncate [0.7, 0.7] to the adapted [0, 0], and
        # [true, "inf"] to [1, inf]
        with pytest.raises(ValueError, match="is not a level 0..1"):
            stopping_time_from_json(make_tree_space(1, 2), {"values": values})

    # the run form on 4 leaves of depth 2: each malformed form is refused
    RUN_SPACE = (2, 2)

    @pytest.mark.parametrize("runs", [[0], [0, 4], [0, 4, 0, 1], "0,4,0", {"0": 4}])
    def test_json_runs_come_in_triples(self, runs):
        with pytest.raises(ValueError, match="triples"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})

    @pytest.mark.parametrize("runs", [
        [2, 4, 1, 0, 2, 1], [0, 3, 2, 2, 4, 2], [0, 0, 1], [2, 2, 2, 0, 2, 1], [3, 1, 2],
    ], ids=["unsorted", "overlapping", "empty", "empty-first", "reversed"])
    def test_json_runs_are_sorted_nonempty_and_apart(self, runs):
        with pytest.raises(ValueError, match="nonempty, sorted and not overlap"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})

    @pytest.mark.parametrize("runs", [[0, 5, 2], [-1, 1, 2], [2, 2**70, 2], [4, 6, 2]])
    def test_json_run_bounds_lie_in_the_leaves(self, runs):
        with pytest.raises(ValueError, match="lie in 0..4"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})

    @pytest.mark.parametrize("runs", [
        [0, 4, True], [False, 4, 1], [0.0, 4, 0], [0, 4.0, 0], [0, 2, 1.0], [0, 2, 0.7],
        ["0", 4, 0], [0, 4, None],
    ])
    def test_json_run_entries_are_integers(self, runs):
        # int() would read [0, 4, true] as the adapted time 1 everywhere
        with pytest.raises(ValueError, match="is not an integer"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})

    @pytest.mark.parametrize("runs", [[0, 4, 3], [0, 2, 1, 3, 4, 4]])
    def test_json_run_levels_lie_in_the_tree(self, runs):
        with pytest.raises(ValueError, match="levels must lie in 0..2"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})

    @pytest.mark.parametrize("runs", [[0, 1, 1], [0, 3, 0], [1, 3, 1]])
    def test_json_runs_must_be_adapted(self, runs):
        with pytest.raises(ValueError, match="adapted"):
            stopping_time_from_json(make_tree_space(*self.RUN_SPACE), {"runs": runs})


class TestKeptEnumeration:
    # every tree shape whose family has at most KEPT_FAMILY_TIMES times; a
    # depth-0 tree has one leaf whatever its branching
    KEPT_SHAPES = [(0, 2)] + [(1, r) for r in range(2, 12)] + [(2, 2), (2, 3), (3, 2)]

    def test_kept_shapes_are_every_family_within_the_bound(self):
        counts = {
            (d, r): count_stopping_times(make_tree_space(d, r))
            for d, r in [(1, 12), (2, 4), (3, 3), (4, 2)] + self.KEPT_SHAPES
        }
        kept = {shape for shape, count in counts.items() if count <= KEPT_FAMILY_TIMES}
        assert kept == set(self.KEPT_SHAPES)
        assert max(counts[shape] for shape in kept) == 2049

    def test_second_enumeration_shares_the_times_and_scans_none(self, monkeypatch):
        space = make_tree_space(2, 3, np.full(9, 1.0 / 9.0))
        filtration_mod._tree_shape.cache_clear()
        first = list(enumerate_stopping_times(space))
        assert all(is_stopping_time(space, tau) for tau in first)
        scans = []

        def counting(space, vals):
            scans.append(vals)
            return True

        monkeypatch.setattr(filtration_mod, "_adapted_scan", counting)
        # another space of the same shape, other leaf masses: its per-time
        # reports read the shared times' table slots, and scan none of them
        other = make_tree_space(2, 3, np.arange(1.0, 10.0) / 45.0)
        again = list(enumerate_stopping_times(other))
        assert len(again) == 730 and all(a is b for a, b in zip(first, again))
        # one shape, and with it one family, built since the clear
        info = filtration_mod._tree_shape.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        seq = make_exponent_sequence([2.0], 0.5, 0.5)
        ws = unit_weight_system(other, seq)
        fvec = trial_vector(other, seq.head_len, 0, 0, 4.0)
        assert all(verify_ap_to_testing(ws, fvec, tau).passed for tau in again)
        assert scans == []

    def test_cap_is_checked_before_the_kept_family(self):
        # depth 3 ternary has 389,017,001 times, past ENUMERATION_CAP: the
        # call raises and leaves the kept cache as it was
        assert sum(1 for _ in enumerate_stopping_times(make_tree_space(2, 3))) == 730
        space = make_tree_space(3, 3)
        assert count_stopping_times(space) == 389_017_001 > ENUMERATION_CAP
        info = filtration_mod._tree_shape.cache_info()
        with pytest.raises(EnumerationCapError):
            enumerate_stopping_times(space)
        assert filtration_mod._tree_shape.cache_info() == info
        assert "kept_family" not in vars(space.shape)

    def test_larger_family_streams_without_filling_the_cache(self):
        # depth 4 binary has 458,330 times: never held whole
        space = make_tree_space(4, 2)
        filtration_mod._tree_shape.cache_clear()
        times = enumerate_stopping_times(space)
        first = next(times)
        np.testing.assert_array_equal(first.values, np.zeros(16))
        assert is_stopping_time(space, next(times))
        # the one shape built since the clear keeps no family
        assert filtration_mod._tree_shape.cache_info().currsize == 1
        assert space.shape.kept_family is None
        assert next(enumerate_stopping_times(space)) is not first

    def test_kept_times_stay_read_only(self):
        space = make_tree_space(3, 2)
        for tau in enumerate_stopping_times(space):
            for arr in (tau.values, tau.finite):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0

    def test_kept_memory_stays_within_budget(self):
        # a kept time, with its values and finite mask, holds about 1 KB
        # (budget 1.5 KB): the largest kept family (2049 times of 11 leaves)
        # stays under 3.1 MB, 8 kept shapes under 25 MB
        for depth, r in self.KEPT_SHAPES:
            filtration_mod._tree_shape.cache_clear()
            space = make_tree_space(depth, r)  # a fresh shape, no family yet
            tracemalloc.start()
            try:
                for tau in enumerate_stopping_times(space):
                    assert is_stopping_time(space, tau)
                    tau.finite  # derived and kept, as verify_ap_to_testing does
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held <= 1536 * count_stopping_times(space) + 4096, (depth, r, held)

    def test_gather_groups_every_time_by_finite_leaf_count(self):
        # the (k_c, c) matrices hold the times' flat indices, counts
        # ascending and family order within a count; a slot is a row of the
        # matrices stacked, keyed by the kept time itself: an equal-valued
        # copy is another key
        for depth, r in self.KEPT_SHAPES:
            times = list(enumerate_stopping_times(make_tree_space(depth, r)))
            slots, matrices = filtration_mod._tree_shape(depth, r).kept_family.gather
            counts = [m.shape[1] for m in matrices]
            flat = [flat_index_oracle(tau) for tau in times]
            assert counts == sorted(set(index.size for index in flat))
            assert sum(m.shape[0] for m in matrices) == len(slots) == len(times)
            rows = [row for m in matrices for row in m]
            order = sorted(range(len(times)), key=lambda i: flat[i].size)
            for slot, i in enumerate(order):
                assert slots[times[i]] == slot and StoppingTime(times[i].values) not in slots
                np.testing.assert_array_equal(rows[slot], flat[i])
            assert all(not m.flags.writeable for m in matrices)

    def test_gather_memory_stays_within_budget(self):
        # the slot map and the grouped flat indices hold about 75-115 bytes
        # per time from 65 times up (budget 320), and write nothing on the
        # times: the largest kept family (2049 times of 11 leaves) about
        # 0.22 MB; built once per shape, on first use
        filtration_mod._tree_shape(1, 2).kept_family.gather  # numpy's first-call allocations
        for depth, r in self.KEPT_SHAPES:
            filtration_mod._tree_shape.cache_clear()
            family = filtration_mod._tree_shape(depth, r).kept_family
            tracemalloc.start()
            try:
                family.gather
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held <= 320 * len(family.times) + 4096, (depth, r, held)
            assert filtration_mod._tree_shape(depth, r).kept_family.gather is family.gather


class TestStoppedValue:
    def test_stop_at_zero(self):
        space = make_tree_space(2, 2)
        f = np.array([1.0, 3.0, 5.0, 7.0])
        tau = StoppingTime(np.zeros(4, dtype=np.int64))
        np.testing.assert_allclose(stopped_value(space, f, tau), cond_exp(space, f, 0))

    def test_never_stopping_returns_f(self):
        space = make_tree_space(2, 2)
        f = np.array([1.0, 3.0, 5.0, 7.0])
        tau = StoppingTime(np.full(4, INF, dtype=np.int64))
        np.testing.assert_array_equal(stopped_value(space, f, tau), f)

    def test_mixed_example(self):
        space = make_tree_space(1, 2)
        tau = StoppingTime(np.array([1, INF]))
        np.testing.assert_array_equal(
            stopped_value(space, np.array([1.0, 3.0]), tau), [1.0, 3.0]
        )

    def test_rejects_non_adapted(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            stopped_value(space, np.ones(2), StoppingTime(np.array([0, 1])))

    def test_matches_partition_average_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            space = random_space(rng, max_depth=3)
            f = rng.normal(size=space.n_leaves) * 2.0
            tau = sample_stopping_time(space, rng)
            got = stopped_value(space, f, tau)
            want = stopped_average_oracle(space, f, tau)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_optional_stopping_on_stopped_atoms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            space = random_space(rng, max_depth=3)
            f = rng.normal(size=space.n_leaves)
            tau = sample_stopping_time(space, rng)
            stopped = stopped_value(space, f, tau)
            w = space.leaf_probs
            for n in space.levels:
                for j in range(space.n_atoms(n)):
                    sl = space.atom_slice(n, j)
                    if np.all(tau.values[sl] == n):
                        lhs = np.sum(w[sl] * stopped[sl])
                        rhs = np.sum(w[sl] * f[sl])
                        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestStoppedMeasurability:
    def test_level_sets_are_measurable(self):
        rng = np.random.default_rng(9)
        space = make_tree_space(2, 2)
        for _ in range(50):
            tau = sample_stopping_time(space, rng)
            for n in space.levels:
                assert is_stopped_measurable(space, tau, tau.values == n)

    def test_peeking_set_is_not(self):
        space = make_tree_space(1, 2)
        tau = StoppingTime(np.zeros(2, dtype=np.int64))
        assert not is_stopped_measurable(space, tau, np.array([True, False]))

    def test_a_stack_is_adapted_where_every_row_is(self):
        # one _adapted_scan of a (C, leaves) stack of times kept on their sets
        # gives is_stopped_measurable of every row at once; is_stopping_time
        # still refuses a time whose values are 2-D
        rng = np.random.default_rng(12)
        verdicts = set()
        for _ in range(200):
            space = random_space(rng, max_depth=3)
            taus = [sample_stopping_time(space, rng) for _ in range(int(rng.integers(1, 4)))]
            sets = [tau.finite if rng.random() < 0.7 else rng.random(space.n_leaves) < 0.8
                    for tau in taus]
            stack = np.array([np.where(a, tau.values, INF) for tau, a in zip(taus, sets)])
            expected = all(is_stopped_measurable(space, tau, a) for tau, a in zip(taus, sets))
            assert filtration_mod._adapted_scan(space, stack) is expected
            verdicts.add(expected)
        assert verdicts == {True, False}
        assert not is_stopping_time(make_tree_space(1, 2), StoppingTime(np.zeros((2, 2), int)))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: make_tree_space(-1, 2), "depth -1"),
        (lambda: make_tree_space(1, 1), "branching 1"),
        (lambda: make_tree_space(1, 2, "skewed"), "unknown leaf_probs spec"),
        (lambda: make_tree_space(1, 2, [1.0]), "expected 2 leaf probabilities"),
        (lambda: make_tree_space(True, 2), "^depth must be an integer$"),
        (lambda: make_tree_space(2.0, 2), "^depth must be an integer$"),
        (lambda: make_tree_space(1, np.float64(2.0)), "^branching must be an integer$"),
        (lambda: as_leaf_mask(make_tree_space(1, 2), [0.5, 0.0]), "exactly 0 or 1"),
        (lambda: as_leaf_mask(make_tree_space(1, 2), [np.nan, 1.0]), "exactly 0 or 1"),
        (lambda: filtration_mod._as_leaf_masks(make_tree_space(1, 2), [[1, 2]]), "exactly 0 or 1"),
        (lambda: as_leaf_vector(make_tree_space(1, 2), [1.0]), "expected 2 leaf values"),
        (lambda: as_leaf_vector(make_tree_space(1, 2), [1.0, np.nan]), "must be finite"),
        (lambda: first_passage_time(make_tree_space(1, 2), np.zeros((1, 2)), 0.0),
         r"matrix, got \(1, 2\)"),
    ],
    ids=["depth-negative", "branching-one", "leaf-probs-spec", "leaf-probs-shape", "depth-bool",
         "depth-float", "branching-float", "mask-fraction", "mask-nan", "mask-stack-two",
         "leaf-vector-shape", "leaf-vector-nan", "passage-matrix-shape"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
