import contextlib
import signal
import tracemalloc

import numpy as np
import pytest

from martbench.exponents import make_exponent_sequence
from martbench.filtration import (
    EnumerationCapError,
    cond_exp,
    cond_exp_atoms,
    enumerate_stopping_times,
    make_tree_space,
)
from martbench.holder import FunctionVector, _entry_levels, level_products, product_function
from martbench.maximal import _weighted_rows, weighted_measure
from martbench.report import check_inequality
import martbench.weights as weights_mod
from martbench.weights import (
    ap_constant,
    make_weight_system,
    necessity_family_ap,
    rh_constant,
    rh_support_ratio,
    sp_constant,
    sp_constant_argmax,
    sp_support_ratio,
    support_family,
    unit_weight_system,
    weight_system_from_json,
)

from helpers import (
    family_max_oracle,
    quotient_atoms_oracle,
    random_positive,
    random_sequence,
    random_space,
    random_weight_system,
    sampled_supports_oracle,
    sp_ratios_oracle,
    streamed_scan,
)


def family_masks(space, family):
    """The supports a scan of the family reads (weights._family_source): its
    kept table's masks, or its drawn supports where it streams."""
    source = weights_mod._family_source(space, family)
    return source.masks if isinstance(source, weights_mod._SupportTable) else source


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def doubling_seq():
    return make_exponent_sequence([2.0], 0.5, 0.5)


class TestConstruction:
    def test_unit_system_sigmas(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        np.testing.assert_array_equal(ws.sigmas[0], [1.0, 1.0])

    def test_dual_density(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        np.testing.assert_allclose(ws.sigmas[0], [1.0, 0.25])

    def test_sigma_masses_are_kept_read_only(self):
        # the leaf masses, and the atom masses of every level below depth,
        # which sigma_atoms and the E^sigma denominators of the weighted
        # ratio read, each bit for bit what the per-call kernels compute
        rng = np.random.default_rng(62)
        space = make_tree_space(2, 3, rng.dirichlet(np.full(9, 4.0)))
        seq = make_exponent_sequence([2.0, 3.0, 4.0], 0.2, 0.5)
        ws = make_weight_system(space, seq, [random_positive(rng, space)], np.ones(9))
        [probs] = ws.sigma_probs
        np.testing.assert_array_equal(probs, space.leaf_probs * ws.sigmas[0])
        assert not probs.flags.writeable and ws.sigma_probs[0] is probs
        [masses] = ws.sigma_masses
        assert ws.sigma_masses[0] is masses and not masses.flags.writeable
        np.testing.assert_array_equal(
            masses, np.concatenate([space.atom_sums(probs, n) for n in range(space.depth)]),
            strict=True)
        np.testing.assert_array_equal(ws.sigma_atoms[0], cond_exp_atoms(space, ws.sigmas[0]),
                                      strict=True)
        quotient = quotient_atoms_oracle(space, masses, space.atom_masses, ws.sigmas[0])
        np.testing.assert_array_equal(ws.sigma_atoms[0], quotient, strict=True)
        gv = FunctionVector(tuple(random_positive(rng, space) for _ in range(2)))
        old = np.ones(space.atom_offsets[-1])
        for g, s in zip(gv.active, [ws.sigmas[0], np.ones(9)]):  # a padded sigma is 1
            old *= cond_exp_atoms(space, g, s)
        np.testing.assert_array_equal(
            _weighted_rows(space, gv, ws.sigmas, ws.sigma_masses, seq), old, strict=True)

    def test_rejects_zero_weight(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            make_weight_system(space, doubling_seq(), [np.array([1.0, 0.0])], np.ones(2))

    def test_rejects_unrepresentable_dual_density(self):
        # p = 1.01 raises the weights to the power -100: 1e-6 overflows and
        # 1e6 underflows
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([1.01], 0.5, 0.5)
        with pytest.raises(ValueError, match=r"sigma_0 for p_0 = 1\.01"):
            make_weight_system(space, seq, [np.array([1e-6, 1e6])], np.ones(2))

    def test_rejects_overflowing_sigma_norm(self):
        # p = 1.01: sigma = 10**308 is finite, but its L^p norm overflows
        space = make_tree_space(1, 2)
        seq = make_exponent_sequence([1.01], 0.5, 0.5)
        with pytest.raises(ValueError, match=r"sigma_0 for p_0 = 1\.01"):
            make_weight_system(space, seq, [np.array([10**-3.08, 1.0])], np.ones(2))

    def test_holds_read_only_copies(self):
        space = make_tree_space(2, 2, [0.1, 0.2, 0.3, 0.4])
        seq = make_exponent_sequence([2.0, 3.0], 1.0 / 6.0, 0.5)
        w = [np.array([1.0, 4.0, 2.0, 0.5]), np.array([3.0, 1.0, 0.25, 2.0])]
        v = np.array([1.0, 2.0, 0.5, 3.0])
        fresh = make_weight_system(space, seq, [x.copy() for x in w], v.copy())
        ws = make_weight_system(space, seq, w, v)
        w[0][:] = 9.0
        v[:] = 7.0
        assert ap_constant(ws) == ap_constant(fresh)
        for arr in (ws.v, ws.active_weights[0], ws.sigmas[1], ws.ap_atoms, ws.sigma_atoms[0],
                    ws.density_atoms, ws.testing_table):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        w[1][:] = 5.0  # after the cache is filled
        assert ap_constant(ws) == ap_constant(fresh)

    def test_rejects_misaligned(self):
        space = make_tree_space(1, 2)
        with pytest.raises(ValueError):
            make_weight_system(
                space, doubling_seq(), [np.ones(2), np.ones(2)], np.ones(2)
            )

    def test_sigma_duality_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            space = random_space(rng)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            for i, (w, s) in enumerate(zip(ws.active_weights, ws.sigmas)):
                p_i = seq.head[i]
                np.testing.assert_allclose(w * s ** (p_i - 1.0), 1.0, rtol=1e-12)

    def test_json_round_trip(self):
        rng = np.random.default_rng(41)
        space = random_space(rng)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        again = weight_system_from_json(ws.to_json())
        np.testing.assert_allclose(again.v, ws.v)
        for a, b in zip(again.active_weights, ws.active_weights):
            np.testing.assert_allclose(a, b)


class TestApConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert ap_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        assert ap_constant(ws) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_v(self):
        rng = np.random.default_rng(42)
        space = random_space(rng)
        seq = doubling_seq()  # aggregate reciprocal 1, so the constant is linear in v
        ws = random_weight_system(rng, space, seq)
        scaled = make_weight_system(space, seq, list(ws.active_weights), 2.0 * ws.v)
        assert ap_constant(scaled) == 2.0 * ap_constant(ws)

    def test_scaling_v_general_exponent(self):
        rng = np.random.default_rng(43)
        space = random_space(rng)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        c = 3.0
        scaled = make_weight_system(space, seq, list(ws.active_weights), c * ws.v)
        rp = seq.aggregate_reciprocal
        assert ap_constant(scaled) == pytest.approx(c**rp * ap_constant(ws), rel=1e-12)


class TestSupportFamilies:
    def test_all_supports_count(self):
        space = make_tree_space(1, 2)
        assert len(support_family(space, "all")) == 3

    def test_sampled_supports_are_nonempty_and_deduped(self):
        space = make_tree_space(2, 2)
        fam = support_family(space, {"count": 200, "seed": 0})
        keys = {m.tobytes() for m in fam}
        assert len(keys) == len(fam)
        assert all(m.any() for m in fam)

    def test_sampled_family_matches_the_oracle_bit_for_bit(self, monkeypatch):
        # depth 0, branching 3, a 2-leaf space where draws repeat, and more
        # shapes, counts and seeds; also chunk by chunk at one row per chunk
        rng = np.random.default_rng(85)
        weights_mod._family_store.cache_clear()
        for depth, branching in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching, random_probs(rng, branching**depth))
            for count, seed in [(1, 0), (7, 1), (40, 2), (120, 2**40), (40, [3, 4])]:
                family = {"count": count, "seed": seed}
                want = sampled_supports_oracle(space, family)
                got = family_masks(space, family)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(support_family(space, family), want)
                with monkeypatch.context() as m:
                    m.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 1)
                    source = weights_mod._family_source(space, family)
                    chunks = list(weights_mod._support_chunks(space, source))
                assert [len(c) for c in chunks] == [1] * len(want)
                if space.n_leaves == 2 and count == 40:
                    assert len(want) < count  # at most 3 distinct supports

    def test_sampled_family_is_cached_read_only_per_shape_count_and_seed(self):
        rng = np.random.default_rng(86)
        cache = weights_mod._family_store
        cache.cache_clear()
        one, other = (make_tree_space(3, 2, random_probs(rng, 8)) for _ in range(2))
        family = {"count": 30, "seed": 5}
        fam = family_masks(one, family)
        assert not fam.flags.writeable
        with pytest.raises(ValueError):
            fam[0, 0] = not fam[0, 0]
        assert family_masks(other, family) is fam  # other leaf masses
        assert cache.cache_info().currsize == 1
        seed_6 = family_masks(one, {"count": 30, "seed": 6})
        count_31 = family_masks(one, {"count": 31, "seed": 5})
        assert seed_6 is not fam and count_31 is not fam
        assert cache.cache_info().currsize == 3
        assert cache.cache_info().maxsize == 8

    @pytest.mark.parametrize(
        "count", [0, -3, 2.7, True], ids=["zero", "negative", "fraction", "bool"])
    def test_sampled_count_must_be_an_integer_of_at_least_one(self, count):
        # an empty family would give constants of 0.0, below the RH bound 1
        ws = random_weight_system(np.random.default_rng(88), make_tree_space(2, 2), doubling_seq())
        family = {"count": count, "seed": 0}
        for scan in (rh_constant, sp_constant, sp_constant_argmax,
                     lambda ws, family: support_family(ws.space, family)):
            with pytest.raises(ValueError, match="count must be an integer >= 1"):
                scan(ws, family)

    def test_integral_float_count_is_that_count(self):
        space = make_tree_space(2, 2)
        np.testing.assert_array_equal(support_family(space, {"count": 5.0, "seed": 1}),
                                      support_family(space, {"count": 5, "seed": 1}))

    def test_sequence_seed_is_a_key_for_the_same_stream(self):
        weights_mod._family_store.cache_clear()
        space = make_tree_space(3, 2)
        want = sampled_supports_oracle(space, {"count": 30, "seed": [1, 2]})
        first = family_masks(space, {"count": 30, "seed": [1, 2]})
        np.testing.assert_array_equal(first, want)
        for seed in ([1, 2], (1, 2), np.array([1, 2])):
            assert family_masks(space, {"count": 30, "seed": seed}) is first
        assert weights_mod._family_store.cache_info().currsize == 1

    @pytest.mark.parametrize("seed", [
        None, np.random.default_rng(87), np.random.PCG64(87), 3.0, 2.5, "7", True,
        [1, 2.0], [True], np.array([1.0, 2.0]),
    ], ids=["none", "generator", "bit-generator", "integral-float", "float", "string",
            "bool", "list-with-float", "list-with-bool", "float-array"])
    def test_seed_that_fixes_no_stream_is_refused(self, seed):
        # a stream that is not reproducible from the family spec (None and a
        # Generator draw afresh) is refused, as is a seed that is no integer
        weights_mod._family_store.cache_clear()
        space = make_tree_space(2, 2)
        with pytest.raises(ValueError, match="seed must be an integer or a list of integers"):
            support_family(space, {"count": 4, "seed": seed})
        assert weights_mod._family_store.cache_info().currsize == 0

    @pytest.mark.parametrize("seed", [[0, True], [True, 0], (3, False), np.array([True, False]),
                                      [[0, True]]],
                             ids=["int-then-bool", "bool-then-int", "tuple", "bool-array",
                                  "nested"])
    def test_seed_mixing_ints_and_bools_is_refused(self, seed):
        # a list that mixes ints and bools is checked element by element as
        # given, not after numpy casts it to an int array ([0, True] -> [0, 1])
        ws = unit_weight_system(make_tree_space(2, 2), make_exponent_sequence([2.0, 3.0], 0.2, 0.5))
        with pytest.raises(ValueError, match="seed must be an integer or a list of integers"):
            sp_constant(ws, {"count": 16, "seed": seed})

    def test_supports_match_stopping_time_supports(self):
        # every enumerated stopping-time support appears in the full scan
        space = make_tree_space(1, 2)
        enumerated = {
            tau.finite.tobytes()
            for tau in enumerate_stopping_times(space)
            if tau.finite.any()
        }
        scanned = {m.tobytes() for m in support_family(space, "all")}
        assert enumerated == scanned


class TestRhConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert rh_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_single_factor_is_one(self):
        rng = np.random.default_rng(44)
        space = random_space(rng)
        seq = make_exponent_sequence([2.5], 0.0)
        ws = random_weight_system(rng, space, seq)
        assert rh_constant(ws) == pytest.approx(1.0, rel=1e-12)

    def test_at_least_one(self):
        # single-leaf supports give ratio 1, so the max is at least 1
        rng = np.random.default_rng(45)
        for _ in range(50):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            assert rh_constant(ws) >= 1.0 - 1e-12

    def test_sampled_below_full(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            full = rh_constant(ws, "all")
            sampled = rh_constant(ws, {"count": 40, "seed": 7})
            assert sampled <= full * (1 + 1e-12)

    def test_matches_stopping_time_scan(self):
        rng = np.random.default_rng(47)
        space = make_tree_space(2, 2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        via_taus = max(
            rh_support_ratio(ws, tau.finite)
            for tau in enumerate_stopping_times(space)
            if tau.finite.any()
        )
        assert rh_constant(ws, "all") == pytest.approx(via_taus, rel=1e-14)


class TestSpConstant:
    def test_unit_is_exactly_one(self):
        for depth, branching in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            space = make_tree_space(depth, branching)
            assert sp_constant(unit_weight_system(space, doubling_seq())) == 1.0

    def test_unit_finite_family_exact(self):
        space = make_tree_space(2, 2)
        seq = make_exponent_sequence([2.0, 2.0], 0.0)
        assert sp_constant(unit_weight_system(space, seq, n_active=2)) == 1.0

    def test_scaling_v(self):
        rng = np.random.default_rng(48)
        space = random_space(rng, max_depth=2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        c = 2.0
        scaled = make_weight_system(space, seq, list(ws.active_weights), c * ws.v)
        rp = seq.aggregate_reciprocal
        assert sp_constant(scaled) == pytest.approx(c**rp * sp_constant(ws), rel=1e-12)

    def test_sampled_below_full(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            space = random_space(rng, max_depth=2)
            seq = random_sequence(rng)
            ws = random_weight_system(rng, space, seq)
            full = sp_constant(ws, "all")
            sampled = sp_constant(ws, {"count": 40, "seed": 3})
            assert sampled <= full * (1 + 1e-12)

    def test_matches_stopping_time_scan(self):
        rng = np.random.default_rng(50)
        space = make_tree_space(2, 2)
        seq = random_sequence(rng)
        ws = random_weight_system(rng, space, seq)
        via_taus = max(
            sp_support_ratio(ws, tau.finite)
            for tau in enumerate_stopping_times(space)
            if tau.finite.any()
        )
        assert sp_constant(ws, "all") == pytest.approx(via_taus, rel=1e-14)


class TestNecessityFamily:
    def test_whole_space_unit(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = necessity_family_ap(ws, 0, np.array([True, True]))
        np.testing.assert_array_equal(product_function(space, fv), [1.0, 1.0])

    def test_empty_set(self):
        space = make_tree_space(1, 2)
        ws = unit_weight_system(space, doubling_seq())
        fv = necessity_family_ap(ws, 0, np.array([False, False]))
        np.testing.assert_array_equal(product_function(space, fv), [0.0, 0.0])

    def test_hand_example(self):
        space = make_tree_space(1, 2)
        ws = make_weight_system(space, doubling_seq(), [np.array([1.0, 4.0])], np.ones(2))
        fv = necessity_family_ap(ws, 1, np.array([True, False]))
        np.testing.assert_allclose(product_function(space, fv), [1.0, 0.0])

    def test_rejects_non_measurable(self):
        space = make_tree_space(2, 2)
        ws = unit_weight_system(space, doubling_seq())
        with pytest.raises(ValueError):
            necessity_family_ap(ws, 1, np.array([True, False, False, False]))


class TestNanPropagation:
    """A NaN ratio on any support must reach the constant, not be skipped."""

    @staticmethod
    def nan_at(monkeypatch, name, position):
        """Scan a 2x2 space (15 supports) in 3-row chunks (3 rows of 4 leaves)
        and give the support at `position` in scan order a NaN from the
        scan kernel `name`; returns the list of chunks the kernel saw."""
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 3 * 4)
        original, seen = getattr(weights_mod, name), []

        def kernel(ws, masks, masses, at):
            lo = sum(map(len, seen))
            seen.append(masks)
            out = original(ws, masks, masses, at)
            if lo <= position < lo + len(masks):
                out[position - lo] = np.nan
            return out

        monkeypatch.setattr(weights_mod, name, kernel)
        return seen

    @staticmethod
    def system(seed):
        return random_weight_system(
            np.random.default_rng(seed), make_tree_space(2, 2), doubling_seq()
        )

    def test_sp_constant(self, monkeypatch):
        seen = self.nan_at(monkeypatch, "_sp_rows", 4)
        value, witness = sp_constant_argmax(self.system(60))
        assert np.isnan(value)
        np.testing.assert_array_equal(witness, [True, False, True, False])  # bitmask 5
        assert len(seen) == 2  # the NaN sits in the second chunk; no later chunk runs
        seen.clear()
        assert np.isnan(sp_constant(self.system(60)))
        assert len(seen) == 2

    def test_rh_constant(self, monkeypatch):
        ws = self.system(61)
        seen = self.nan_at(monkeypatch, "_rh_rows", 7)
        assert np.isnan(rh_constant(ws))
        assert len(seen) == 3  # the NaN sits in the third chunk; no later chunk runs
        seen.clear()
        value, witness = rh_argmax(ws)
        assert np.isnan(value)
        np.testing.assert_array_equal(witness, [False, False, False, True])  # bitmask 8
        assert len(seen) == 3


def rh_argmax(ws):
    """rh_constant's "all" scan with its witness (rh_constant keeps only the value)."""
    return weights_mod._family_max(ws, "all", weights_mod._rh_rows)


def oracle_ratios(ws):
    """RH and testing ratios of every nonempty support, in bitmask order,
    straight from the definitions: per support F, the bases |F|_{sigma_i}
    and |F|, the RH denominator int_F prod sigma_i**d_i, and the testing
    numerator int_F M(sigma chi_F)**p v from the masked level products
    (taken 4096 masks at a time; test_holder.py pins a mask stack to
    the single-mask result bit for bit)."""
    space, seq = ws.space, ws.seq
    rp = seq.aggregate_reciprocal
    d = [(1.0 / seq.head[i]) / rp for i in range(ws.n_active)]
    integrand = np.prod([s**e for s, e in zip(ws.sigmas, d)], axis=0)
    family = ((np.arange(1, 2**space.n_leaves)[:, None] >> np.arange(space.n_leaves)) & 1) == 1
    maximal = np.concatenate([
        level_products(space, FunctionVector(ws.sigmas, family[i : i + 4096]), seq).max(axis=1)
        for i in range(0, len(family), 4096)
    ])
    rh, sp = [], []
    for F, m in zip(family, maximal):
        bases = np.prod([weighted_measure(space, F, s) ** e for s, e in zip(ws.sigmas, d)])
        bases *= weighted_measure(space, F) ** (1.0 - sum(d))
        rh.append(bases / weighted_measure(space, F, integrand))
        numer = float(np.sum((space.leaf_probs * ws.v * m ** (1.0 / rp))[F]))
        sp.append((numer / bases) ** rp)
    return np.array(rh), np.array(sp)


def random_probs(rng, n):
    probs = rng.uniform(0.2, 1.0, n)
    return probs / probs.sum()


class TestBatchedScan:
    SHAPES = [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)]

    def test_constants_match_the_oracle(self, monkeypatch):
        # 40 systems, half with a finite exponent family; 8- and 9-leaf
        # scans run in several chunks under the small cap, and one system
        # has 16 leaves (65,535 supports) under the default cap
        rng = np.random.default_rng(80)
        for k in range(40):
            depth, branching = (4, 2) if k == 0 else self.SHAPES[k % len(self.SHAPES)]
            space = make_tree_space(depth, branching, random_probs(rng, branching**depth))
            seq = random_sequence(rng, max_head=3 if k else 1, allow_finite=False)
            if k % 2:
                seq = make_exponent_sequence(list(seq.head), 0.0)
            ws = random_weight_system(rng, space, seq)
            with monkeypatch.context() as m:
                if k:
                    m.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 600)
                rh, sp = rh_constant(ws), sp_constant(ws)
            want_rh, want_sp = (r.max() for r in oracle_ratios(ws))
            assert rh == pytest.approx(want_rh, rel=1e-12)
            assert sp == pytest.approx(want_sp, rel=1e-12)

    def test_support_family_is_bitmask_order(self, monkeypatch):
        space = make_tree_space(1, 3)
        bits = [[(m >> i) & 1 for i in range(3)] for m in range(1, 8)]
        np.testing.assert_array_equal(support_family(space), bits)
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 3)  # one row per chunk
        np.testing.assert_array_equal(support_family(space), bits)

    def test_argmax_is_first_maximizing_support(self, monkeypatch):
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 4 * 2)  # 2-row chunks
        unit = unit_weight_system(make_tree_space(2, 2), doubling_seq())
        value, witness = sp_constant_argmax(unit)  # every support ties at 1.0
        assert value == 1.0
        np.testing.assert_array_equal(witness, [True, False, False, False])
        with pytest.raises(ValueError):
            witness[0] = False
        rng = np.random.default_rng(81)
        for _ in range(10):
            space = make_tree_space(3, 2, random_probs(rng, 8))
            ws = random_weight_system(rng, space, random_sequence(rng))
            family = support_family(space)
            ratios = weights_mod.sp_ratios(ws, family)  # the whole family in one call
            value, witness = sp_constant_argmax(ws)
            assert value == ratios.max()
            np.testing.assert_array_equal(witness, family[int(ratios.argmax())])

    def test_many_chunks_match_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(82)
        space = make_tree_space(4, 2, random_probs(rng, 16))
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        w = [random_positive(rng, space) for _ in range(2)]
        v = random_positive(rng, space)
        chunked = make_weight_system(space, seq, w, v)
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 16 * 1024)  # 1024 supports
        many = sp_constant_argmax(chunked), rh_argmax(chunked)
        n_chunks = len(list(weights_mod._support_chunks(space, None)))  # "all" streams
        monkeypatch.setattr(weights_mod, "SCAN_CHUNK_FLOATS", 16 * 2**16)
        assert n_chunks > 50 and len(list(weights_mod._support_chunks(space, None))) == 1
        whole = make_weight_system(space, seq, w, v)
        one = sp_constant_argmax(whole), rh_argmax(whole)
        for (a, wa), (b, wb) in zip(many, one):
            assert a == b
            np.testing.assert_array_equal(wa, wb)

    def test_unit_systems_exactly_one(self):
        seqs = [
            doubling_seq(),
            make_exponent_sequence([2.0, 3.0, 6.0], 0.0),
            make_exponent_sequence([1.5, 4.0], 0.2, 0.5),
        ]
        for depth, branching in [(1, 2), (2, 2), (1, 3), (2, 3)]:  # criterion 09's shapes
            space = make_tree_space(depth, branching)
            for seq in seqs:
                for n_active in range(1, seq.head_len + 1):
                    ws = unit_weight_system(space, seq, n_active)
                    assert rh_constant(ws) == 1.0 and sp_constant(ws) == 1.0
                    assert rh_support_ratio(ws, np.ones(space.n_leaves)) == 1.0
                    assert sp_constant(ws, {"count": 20, "seed": 1}) == 1.0

    def test_scan_memory_stays_within_a_few_chunk_budgets(self):
        # an infinite tail, and a finite family whose testing scan takes the
        # per-atom level products of each chunk
        for tail in ((0.2, 0.5), (0.0, 0.5)):
            rng = np.random.default_rng(83)
            space = make_tree_space(4, 2, random_probs(rng, 16))
            seq = make_exponent_sequence([2.0, 3.0, 4.0], *tail)
            ws = random_weight_system(rng, space, seq)
            budget = weights_mod.SCAN_CHUNK_FLOATS * 8
            level_blocks = (2**16 - 1) * (space.depth + 1) * 16 * 8  # 42 MB for the whole family
            tracemalloc.start()
            try:
                sp_constant(ws)
                rh_constant(ws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * budget
            assert peak < level_blocks / 20

    def test_cached_scan_still_checks_the_cap(self):
        # 24 leaves: 16,777,215 supports, past ENUMERATION_CAP.  Every "all"
        # scan raises at the call, the system's cached scan included, on
        # every read; the time limit stops a scan that starts instead
        ws = random_weight_system(
            np.random.default_rng(84), make_tree_space(1, 24), doubling_seq()
        )
        scans = (sp_constant, rh_constant, sp_constant_argmax,
                 lambda ws: support_family(ws.space), lambda ws: ws.sp_scan)
        with time_limit(5.0):
            for scan in (*scans, scans[-1]):
                with pytest.raises(EnumerationCapError):
                    scan(ws)


def kernel_system(rng, finite):
    """A random system for the kernel checks: depth 0-8 and branching 2-4 up
    to 4096 leaves, 0-3 weights of spread up to 1e3, and an infinite or a
    finite exponent family."""
    depth, branching = int(rng.integers(0, 9)), int(rng.integers(2, 5))
    while branching**depth > 4096:
        depth -= 1
    space = make_tree_space(depth, branching, random_probs(rng, branching**depth))
    head = list(rng.uniform(1.2, 6.0, int(rng.integers(1, 4))))
    tail = (0.0, 0.5) if finite else (float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.2, 0.8)))
    seq = make_exponent_sequence(head, *tail)
    spread = float(np.exp(rng.uniform(0.0, np.log(1e3))))
    weights = [random_positive(rng, space, spread) for _ in range(rng.integers(0, len(head) + 1))]
    return make_weight_system(space, seq, weights, random_positive(rng, space, spread))


def kernel_chunks(rng, space):
    """Every support up to 12 leaves, as one chunk; beyond, two random 28-row chunks."""
    if space.n_leaves <= 12:
        return [support_family(space)]
    return [rng.random((28, space.n_leaves)) < rng.uniform(0.3, 0.95) for _ in range(2)]


class TestTestingTable:
    """sp_ratios against the masked-level-product kernel it replaces."""

    @pytest.mark.parametrize("finite, count", [(False, 200), (True, 40)])
    def test_kernel_matches_the_oracle_bit_for_bit(self, finite, count):
        rng = np.random.default_rng(110 + finite)
        for _ in range(count):
            ws = kernel_system(rng, finite)
            chunks = kernel_chunks(rng, ws.space)
            # overflowed products are inf here and NaN (inf * 0) in the oracle
            with np.errstate(over="ignore", invalid="ignore"):
                for masks in chunks:
                    np.testing.assert_array_equal(
                        weights_mod.sp_ratios(ws, masks), sp_ratios_oracle(ws, masks)
                    )  # NaN compares equal to NaN here
                new = family_max_oracle(ws, chunks, weights_mod.sp_ratios)
                old = family_max_oracle(ws, chunks, sp_ratios_oracle)
            assert new[0] == old[0] or np.isnan(new[0]) and np.isnan(old[0])
            np.testing.assert_array_equal(new[1], old[1])
            if ws.space.n_leaves <= 12 and not np.isnan(old[0]):
                assert sp_constant_argmax(ws)[0] == old[0]
                np.testing.assert_array_equal(sp_constant_argmax(ws)[1], old[1])

    def test_table_rows(self):
        rng = np.random.default_rng(112)
        ws = kernel_system(rng, finite=False)
        space, rp = ws.space, ws.seq.aggregate_reciprocal
        density = np.ones((space.depth + 1, space.n_leaves))
        for s in ws.sigmas:
            density = density * np.array([cond_exp(space, s, n) for n in space.levels])
        np.testing.assert_array_equal(space.expand_levels(ws.density_atoms), density)
        for n in space.levels:
            want = space.leaf_probs * ws.v * density[n:].max(axis=0) ** (1.0 / rp)
            np.testing.assert_array_equal(ws.testing_table[n], want)
        np.testing.assert_array_equal(ws.testing_table[space.depth + 1], 0.0)

    def test_entry_levels(self):
        space = make_tree_space(2, 2)
        masks = np.array([[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]], bool)
        want = [[0, 0, 0, 0], [1, 1, 3, 2], [3, 2, 2, 3], [3, 3, 3, 3]]
        np.testing.assert_array_equal(_entry_levels(space, masks), want)
        point = np.array([[True], [False]])
        np.testing.assert_array_equal(_entry_levels(make_tree_space(0, 2), point), [[0], [1]])
        # any leading shape, and a 0/1 integer mask is cast to bool
        np.testing.assert_array_equal(_entry_levels(space, masks.reshape(2, 2, 4)),
                                      np.reshape(want, (2, 2, 4)))
        np.testing.assert_array_equal(_entry_levels(space, [1, 1, 0, 1]), want[1])

    def overflow_system(self):
        """sigma_1 and sigma_2 are 1e200 on leaves 0 and 1: their level-0
        averages multiply past the float range, and the leaf values do not."""
        return make_weight_system(
            make_tree_space(1, 3),
            make_exponent_sequence([1.5, 1.5], 0.2, 0.5),
            [[1e-100, 1.0, 1.0], [1.0, 1e-100, 1.0]],
            [1.0, 1.0, 1.0],
        )

    def test_overflow_on_a_partly_covered_atom_is_not_nan(self):
        mpmath = pytest.importorskip("mpmath")
        ws = self.overflow_system()
        masks = np.array([[True, True, False], [True, True, True]])
        with np.errstate(over="ignore", invalid="ignore"):
            old = sp_ratios_oracle(ws, masks)
        assert np.isnan(old[0]) and old[1] == np.inf  # inf * 0 on the level-0 atom
        new = weights_mod.sp_ratios(ws, masks)
        assert new[1] == np.inf
        # F = {0, 1}: both leaves enter at level 1, where R = sigma_1 sigma_2
        mpmath.mp.dps = 40
        mpf = mpmath.mpf
        rp = 2 / mpf(1.5) + mpf(0.2)
        d = (1 / mpf(1.5)) / rp
        s1, s2 = [mpf(1e-100) ** -2, mpf(1)], [mpf(1), mpf(1e-100) ** -2]
        third = mpf(1) / 3
        numer = sum(third * (a * b) ** (1 / rp) for a, b in zip(s1, s2))
        bases = (third * sum(s1)) ** d * (third * sum(s2)) ** d * (2 * third) ** (1 - 2 * d)
        exact = float((numer / bases) ** rp)
        assert new[0] == pytest.approx(exact, rel=1e-12)
        assert new[0] == pytest.approx(5.43e-67, rel=1e-3)

    def test_overflowed_constant_is_inf(self):
        ws = self.overflow_system()
        value, witness = sp_constant_argmax(ws)
        assert value == np.inf
        np.testing.assert_array_equal(witness, [True, True, True])
        with np.errstate(over="ignore", invalid="ignore"):
            old = family_max_oracle(ws, [support_family(ws.space)], sp_ratios_oracle)
        assert np.isnan(old[0])
        # a report built on the constant now fails as "inf", where it failed as "nan"
        report = check_inequality("sp", 1.0, 1.0, constant=sp_constant(ws))
        assert not report.passed and report.metadata["reason"] == "inf"


def assert_same_scan(got, want):
    """Two (value, witness) scans agree bit for bit: NaN matches NaN, and the
    witnesses have the same bytes."""
    assert got[0] == want[0] or np.isnan(got[0]) and np.isnan(want[0])
    assert (got[1] is None) == (want[1] is None)
    if got[1] is not None:
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


class TestKeptTables:
    """Families that fit one scan chunk are kept per tree shape and family;
    every scan of them gives the streamed scan's values and witnesses."""

    FAMILIES = ["all", *({"count": k, "seed": 3} for k in (1, 16, 32, 256))]

    @staticmethod
    def nan_where(monkeypatch, leaf):
        """Give every support that holds `leaf` and one more leaf a NaN ratio in
        both scan kernels, whichever path calls them (sp_ratios and rh_ratios
        call them too): the witness is then the first such support in scan
        order."""
        for name in ("_sp_rows", "_rh_rows"):
            def kernel(ws, masks, masses, at=None, original=getattr(weights_mod, name)):
                out = original(ws, masks, masses, at)
                out[masks[:, leaf] & (masks.sum(axis=1) > 1)] = np.nan
                return out

            monkeypatch.setattr(weights_mod, name, kernel)

    def check_system(self, ws, family, drawn):
        for kernel, kept in ((weights_mod.sp_ratios, lambda: sp_constant_argmax(ws, family)),
                             (weights_mod.rh_ratios,
                              lambda: weights_mod._family_max(ws, family, weights_mod._rh_rows))):
            with np.errstate(invalid="ignore"):
                want, got = streamed_scan(ws, family, kernel, drawn), kept()
            assert_same_scan(got, want)
        rh = rh_constant(ws, family)
        assert rh == want[0] or np.isnan(rh) and np.isnan(want[0])
        return got[0]

    @pytest.mark.parametrize("finite", [False, True], ids=["infinite-tail", "finite-tail"])
    def test_kept_scans_match_the_streamed_scan_bit_for_bit(self, finite, monkeypatch):
        rng = np.random.default_rng(120 + finite)
        # the kernel shapes, and 256 leaves, where a finite-tail testing scan
        # takes the 256-sample family in slices of 28 supports
        for depth, branching in [*TestBatchedScan.SHAPES, (8, 2)]:
            space = make_tree_space(depth, branching, random_probs(rng, branching**depth))
            head = list(rng.uniform(1.2, 6.0, int(rng.integers(1, 4))))
            seq = make_exponent_sequence(head, *((0.0, 0.5) if finite else (0.3, 0.5)))
            for family in self.FAMILIES[space.n_leaves > 12:]:
                assert isinstance(weights_mod._family_source(space, family),
                                  weights_mod._SupportTable)
                drawn = None if family == "all" else sampled_supports_oracle(space, family)
                ws = make_weight_system(space, seq, [random_positive(rng, space, 50.0)
                                                     for _ in head], random_positive(rng, space))
                self.check_system(ws, family, drawn)
                for n_active in (1, len(head)):
                    unit = unit_weight_system(space, seq, n_active)
                    assert self.check_system(unit, family, drawn) == 1.0
                    assert sp_constant(unit, family) == rh_constant(unit, family) == 1.0
                if family != {"count": 1, "seed": 3}:  # one support, of one leaf or more
                    leaf = int(rng.integers(space.n_leaves))
                    with monkeypatch.context() as m:
                        self.nan_where(m, leaf)
                        nan = make_weight_system(space, seq, list(ws.active_weights), ws.v)
                        assert np.isnan(self.check_system(nan, family, drawn))
                        witness = sp_constant_argmax(nan, family)[1]
                    assert witness[leaf] and witness.sum() > 1

    def test_families_past_one_chunk_stream(self):
        # "all" at 13 leaves (8,191 supports), and 256 samples at 512 leaves;
        # sample:32 at 4,096 leaves ends in the sampler's OverflowError
        # before any table (every 4,096-leaf shape overflows its counts)
        weights_mod._family_store.cache_clear()
        weights_mod._kept_masses.cache_clear()
        rng = np.random.default_rng(122)
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        for depth, branching in [(12, 2), (6, 4), (2, 64)]:
            with pytest.raises(OverflowError):
                sp_constant(unit_weight_system(make_tree_space(depth, branching), seq),
                            {"count": 32, "seed": 0})
        cases = [(make_tree_space(1, 13), "all"),
                 (make_tree_space(9, 2), {"count": 256, "seed": 0})]
        for space, family in cases:
            assert len(support_family(space, family)) * space.n_leaves > \
                weights_mod.SCAN_CHUNK_FLOATS
            ws = random_weight_system(rng, space, seq)
            drawn = None if family == "all" else sampled_supports_oracle(space, family)
            source = weights_mod._family_source(space, family)  # None, or the drawn supports
            assert source is None if drawn is None else np.array_equal(source, drawn)
            sp, rh = sp_constant_argmax(ws, family), rh_constant(ws, family)
            assert_same_scan(sp, streamed_scan(ws, family, weights_mod.sp_ratios, drawn))
            assert rh == streamed_scan(ws, family, weights_mod.rh_ratios, drawn)[0]
        # the one kept entry is the 512-leaf family's drawn supports, which its
        # scans stream: no table index was built for it
        assert weights_mod._family_store.cache_info().currsize == 1
        assert "entry" not in vars(weights_mod._family_store(9, 2, (256, 0)))
        assert weights_mod._kept_masses.cache_info().currsize == 0

    def test_one_scan_keys_a_streamed_sampled_family_once(self, monkeypatch):
        # 256 samples at 512 leaves stream in two chunks: each scan checks
        # and keys the spec once (weights._family_source), before any chunk
        space = make_tree_space(9, 2)
        family = {"count": 256, "seed": 0}
        assert isinstance(weights_mod._family_source(space, family), np.ndarray)
        ws = random_weight_system(np.random.default_rng(126), space,
                                  make_exponent_sequence([2.5, 3.0], 0.2, 0.5))
        calls, original = [], weights_mod._sampled_key
        monkeypatch.setattr(weights_mod, "_sampled_key",
                            lambda family: calls.append(family) or original(family))
        for scan in (sp_constant, rh_constant, sp_constant_argmax,
                     lambda ws, f: support_family(ws.space, f)):
            calls.clear()
            scan(ws, family)
            assert calls == [family]

    def test_tables_are_built_once_per_shape_and_family(self, monkeypatch):
        weights_mod._family_store.cache_clear()
        calls, original = [], weights_mod._entry_levels

        def counted(space, masks):
            calls.append(masks.shape)
            return original(space, masks)

        monkeypatch.setattr(weights_mod, "_entry_levels", counted)
        rng = np.random.default_rng(123)
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        for _ in range(3):  # other leaf masses and weights, the same two shapes
            for depth, branching in [(3, 2), (2, 3)]:
                space = make_tree_space(depth, branching, random_probs(rng, branching**depth))
                ws = random_weight_system(rng, space, seq)
                for family in ("all", {"count": 16, "seed": 1}):
                    sp_constant(ws, family)
                    rh_constant(ws, family)
        sampled = [len(support_family(make_tree_space(depth, branching),
                                      {"count": 16, "seed": 1})) for depth, branching in [(3, 2), (2, 3)]]
        assert calls == [(255, 8), (sampled[0], 8), (511, 9), (sampled[1], 9)]
        assert weights_mod._family_store.cache_info().currsize == 4
        table = weights_mod._family_source(make_tree_space(3, 2), "all")
        assert not table.masks.flags.writeable
        assert not table.entry_index(make_tree_space(3, 2)).flags.writeable
        np.testing.assert_array_equal(table.masks, support_family(make_tree_space(3, 2)))

    def test_support_masses_are_summed_once_per_system(self, monkeypatch):
        weights_mod._kept_masses.cache_clear()
        calls, original = [], weights_mod._support_masses

        def counted(ws, masks):
            calls.append(len(masks))
            return original(ws, masks)

        monkeypatch.setattr(weights_mod, "_support_masses", counted)
        rng = np.random.default_rng(124)
        space = make_tree_space(2, 3, random_probs(rng, 9))
        ws = random_weight_system(rng, space, make_exponent_sequence([2.5, 3.0], 0.2, 0.5))
        sp_constant(ws)
        rh_constant(ws)
        assert calls == [511]
        family = {"count": 16, "seed": 2}
        sp_constant(ws, family)
        rh_constant(ws, family)
        assert calls == [511, 15]
        masses = weights_mod._kept_masses(ws, weights_mod._family_source(space, family))
        assert masses.shape == (len(ws.sigmas) + 1, 15) and not masses.flags.writeable

    def test_kept_sampled_family_still_checks_its_spec(self):
        space = make_tree_space(2, 2)
        ws = random_weight_system(np.random.default_rng(125), space, doubling_seq())
        for _ in range(2):
            sp_constant(ws, {"count": 16, "seed": 0})
        for family, match in (({"count": True, "seed": 0}, "count must be an integer"),
                              ({"count": 16.5, "seed": 0}, "count must be an integer"),
                              ({"count": 16, "seed": 0.0}, "seed must be an integer"),
                              ({"count": 16, "seed": "0"}, "seed must be an integer")):
            for scan in (sp_constant, rh_constant, lambda ws, f: support_family(ws.space, f)):
                with pytest.raises(ValueError, match=match):
                    scan(ws, family)

    def test_sampler_overflow_is_not_kept(self):
        weights_mod._family_store.cache_clear()
        space = make_tree_space(10, 2)  # the sampler overflows from binary depth 10
        ws = unit_weight_system(space, doubling_seq())
        for _ in range(2):
            with pytest.raises(OverflowError):
                sp_constant(ws, {"count": 1, "seed": 0})
        assert weights_mod._family_store.cache_info().currsize == 0


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: make_weight_system(make_tree_space(1, 2), doubling_seq(), [], [1.0, 0.0]),
         "v must be strictly positive"),
        (lambda: support_family(make_tree_space(1, 2), "some"), "unknown family spec 'some'"),
        (lambda: necessity_family_ap(unit_weight_system(make_tree_space(1, 2), doubling_seq()),
                                     2, [True, True]), "level 2 out of range"),
    ],
    ids=["v-zero", "family-spec", "necessity-level"],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
