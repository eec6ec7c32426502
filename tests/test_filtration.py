import itertools

import numpy as np
import pytest

from martbench.filtration import (
    EnumerationCapError,
    StoppingTime,
    cond_exp,
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
from martbench.holder import lp_norm

from helpers import random_space, stopped_average_oracle

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

    def test_out_of_range_values(self):
        space = make_tree_space(1, 2)
        assert not is_stopping_time(space, StoppingTime(np.array([5, 5])))

    def test_counts(self):
        for depth, expected in [(0, 2), (1, 5), (2, 26)]:
            assert count_stopping_times(make_tree_space(depth, 2)) == expected

    def test_enumeration_matches_count_no_duplicates(self):
        for depth in (0, 1, 2):
            space = make_tree_space(depth, 2)
            times = list(enumerate_stopping_times(space))
            keys = {tau.key() for tau in times}
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
            sample_stopping_time(space, np.random.default_rng(5)).key() for _ in range(1)
        ]
        draws_b = [
            sample_stopping_time(space, np.random.default_rng(5)).key() for _ in range(1)
        ]
        assert draws_a == draws_b
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert is_stopping_time(space, sample_stopping_time(space, rng))

    def test_json_round_trip(self):
        space = make_tree_space(1, 2)
        tau = StoppingTime(np.array([1, INF]))
        doc = tau.to_json()
        assert doc == {"values": [1, "inf"]}
        again = stopping_time_from_json(space, doc)
        np.testing.assert_array_equal(again.values, tau.values)

    def test_json_rejects_non_adapted(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            stopping_time_from_json(space, {"values": [0, 1]})


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
