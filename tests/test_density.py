import math

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import density as de
from chaoslab import systems as sy
from chaoslab.errors import PolicyError, ValidationError
from oracles import (
    boundary_extrema,
    cantor_values_direct,
    float_distance_values,
    per_set_density,
    per_threshold_phi,
    runs_to_mask,
)


def doubling_runs(horizon):
    runs, length, agree, total = [], 2, True, 0
    while total < horizon:
        runs.append((length, agree))
        total += length
        length, agree = 2 * length, not agree
    return runs


def density(mask, burn_in=None):
    """The kernel's estimate of one time set over the checkpoint grid from
    the burn-in, packed by `pack_times`."""
    mask = np.asarray(mask, dtype=bool)
    cps = c.checkpoint_grid(mask.size, burn_in)
    (est,) = de.nested_density_estimates(c.pack_times(mask)[None], mask.size, cps)
    return est


def density_along(mask, checkpoints, which="lower"):
    """The kernel's lower (min of count/n) or upper (max) density of one
    time set along the given increasing checkpoints."""
    mask = np.asarray(mask, dtype=bool)
    (est,) = de.nested_density_estimates(c.pack_times(mask)[None], mask.size, checkpoints)
    return est.lower if which == "lower" else est.upper


def values_series(values):
    return c.DistanceSeries.from_values(np.asarray(values, dtype=float))


def first_times(count, horizon):
    """Mask over times 1..horizon of the set {1, ..., count}."""
    mask = np.zeros(horizon, dtype=bool)
    mask[:count] = True
    return mask


class TestEmpiricalDensity:
    def test_full_set(self):
        est = density(np.ones(50, dtype=bool), 1)
        assert est.upper == 1 and est.lower == 1

    def test_empty_set(self):
        est = density(np.zeros(50, dtype=bool), 1)
        assert est.upper == 0 and est.lower == 0

    def test_doubling_schedule_matches_boundary_oracle(self):
        horizon = 4**10
        runs = doubling_runs(horizon)
        mask = runs_to_mask(runs, horizon)
        est = density(mask)
        upper_oracle, lower_oracle = boundary_extrema(runs, horizon, est.checkpoints[0])
        # the oracle's boundary values converge to 2/3 and 1/3
        assert abs(float(upper_oracle) - 2 / 3) <= 0.02
        assert abs(float(lower_oracle) - 1 / 3) <= 0.02
        assert abs(float(est.upper) - float(upper_oracle)) <= 0.02
        assert abs(float(est.lower) - float(lower_oracle)) <= 0.02

    def test_burn_in_beyond_horizon_is_policy_error(self):
        with pytest.raises(PolicyError):
            density(first_times(1, 5), 10)

    @pytest.mark.parametrize("burn_in", [0, -3])
    def test_burn_in_below_one_is_policy_error(self, burn_in):
        with pytest.raises(PolicyError, match="burn-in must be >= 1"):
            density(first_times(1, 5), burn_in)

    @pytest.mark.parametrize("burn_in", [2.5, float("nan"), float("inf")])
    def test_non_integral_burn_in_is_policy_error(self, burn_in):
        with pytest.raises(PolicyError, match="burn-in must be an integer"):
            c.checkpoint_grid(4, burn_in)
        with pytest.raises(PolicyError, match="burn-in must be an integer"):
            c.phi_profile(values_series(np.zeros(4)), burn_in)
        assert c.checkpoint_grid(4, np.int64(2)) == c.checkpoint_grid(4, 2.0) == (2, 3, 4)


class TestDensityAlong:
    def test_full_set_any_checkpoints(self):
        assert density_along(np.ones(100, dtype=bool), [3, 50, 100]) == 1

    def test_run_boundary_checkpoints(self):
        horizon = 4**10
        runs = doubling_runs(horizon)
        mask = runs_to_mask(runs, horizon)
        bounds = np.cumsum([l for l, _ in runs])
        agree_ends = [int(n) for n, (_, a) in zip(bounds, runs) if a and n >= 1000]
        disagree_ends = [int(n) for n, (_, a) in zip(bounds, runs) if not a and n >= 1000]
        agree_ends = [n for n in agree_ends if n <= horizon]
        disagree_ends = [n for n in disagree_ends if n <= horizon]
        assert abs(float(density_along(mask, agree_ends, "lower")) - 2 / 3) <= 0.02
        assert abs(float(density_along(mask, disagree_ends, "lower")) - 1 / 3) <= 0.02

    def test_empty_checkpoints_error(self):
        s = first_times(1, 10)
        with pytest.raises(PolicyError):
            density_along(s, [])

    def test_out_of_range_checkpoints_error(self):
        s = first_times(1, 10)
        with pytest.raises(PolicyError):
            density_along(s, [5, 11])
        with pytest.raises(PolicyError):
            density_along(s, [0, 5])

    def test_upper_variant(self):
        s = first_times(3, 10)
        assert density_along(s, [3, 10], "upper") == 1
        assert density_along(s, [3, 10], "lower") == Fraction(3, 10)


class TestPhiProfile:
    def test_all_zero_series(self):
        d = values_series(np.zeros(500))
        prof = c.phi_profile(d, 1)
        assert np.all(prof.phi_star == 1.0) and np.all(prof.phi_lower == 1.0)

    def test_all_one_series(self):
        # no distance lies below a threshold, not even the top one, 1
        d = values_series(np.ones(500))
        prof = c.phi_profile(d, 1)
        assert np.all(prof.phi_star == 0.0) and np.all(prof.phi_lower == 0.0)

    def test_phi_floats_computed_once_and_read_only(self):
        d = values_series(np.random.default_rng(3).random(2000))
        prof = c.phi_profile(d, 1)
        for name, want in (
            ("phi_star", [float(e.upper) for e in prof.estimates]),
            ("phi_lower", [float(e.lower) for e in prof.estimates]),
        ):
            first = getattr(prof, name)
            assert getattr(prof, name) is first
            assert not first.flags.writeable
            assert first.dtype == np.float64 and first.tolist() == want

    def test_threshold_grid_read_only(self):
        grid = c.THRESHOLD_GRID
        assert not grid.flags.writeable
        assert grid.tobytes() == np.geomspace(2**-16, 1.0, 16).tobytes()
        prof = c.phi_profile(values_series(np.zeros(200)), 1)
        assert prof.thresholds is grid
        with pytest.raises(ValidationError, match="one estimate per threshold"):
            c.PhiProfile(prof.estimates[:-1], prof.horizon)

    def test_series_validation(self):
        with pytest.raises(ValidationError):
            values_series(np.array([0.2, np.nan]))
        with pytest.raises(ValidationError):
            values_series(np.array([0.2, 1.2]))
        with pytest.raises(ValidationError):
            values_series(np.array([]))

    def test_bernoulli_calibration_small(self):
        # LLN oracle: agreement probability of two fair tracks is exactly 1/2
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        d = values_series(
            (rng_a.integers(0, 2, 20000) != rng_b.integers(0, 2, 20000)).astype(float)
        )
        prof = c.phi_profile(d, 2000)
        assert np.all(np.abs(prof.phi_star - 0.5) <= 0.03)
        assert np.all(np.abs(prof.phi_lower - 0.5) <= 0.03)


@st.composite
def nested_masks(draw):
    horizon = draw(st.integers(20, 300))
    small = np.array(draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon)))
    extra = np.array(draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon)))
    return small, small | extra


class TestInvariants:
    @given(nested_masks(), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_nesting_monotone(self, sets, burn):
        small, big = sets
        burn = min(burn, small.size)
        est_small = density(small, burn)
        est_big = density(big, burn)
        assert est_small.upper <= est_big.upper
        assert est_small.lower <= est_big.lower

    @given(nested_masks(), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_complement_identity(self, sets, burn):
        s, _ = sets
        burn = min(burn, s.size)
        est = density(s, burn)
        est_c = density(~s, burn)
        assert est.upper == 1 - est_c.lower
        assert est.lower == 1 - est_c.upper

    @given(
        st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=20, max_size=200),
        st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_profile_monotone_and_ordered(self, values, burn):
        d = values_series(np.array(values, dtype=float))
        prof = c.phi_profile(d, min(burn, len(values)))
        star, low = prof.phi_star, prof.phi_lower
        assert np.all(np.diff(star) >= 0)
        assert np.all(np.diff(low) >= 0)
        assert np.all(low <= star)
        assert np.all((0 <= low) & (star <= 1))

    def test_profile_reaches_one_at_the_top_threshold(self):
        # the largest distance below 1 lies below the top threshold only
        d = values_series(np.full(100, np.nextafter(1.0, 0.0)))
        prof = c.phi_profile(d, 1)
        assert prof.phi_star[-1] == 1.0 and prof.phi_lower[-1] == 1.0
        assert prof.phi_star[-2] == 0.0 and prof.phi_lower[-2] == 0.0


# --- the nested-time-set kernel against the per-set oracle -------------------


def estimate_key(e):
    return (e.upper, e.lower, e.checkpoints, e.count_at_horizon)


def burn_ins_for(horizon):
    """The default burn-in (None, beyond horizons below 100), burn-in 1,
    burn-in == horizon or any burn-in."""
    return st.one_of(st.none(), st.just(1), st.just(horizon), st.integers(1, horizon))


def checkpoints_for(horizon):
    """The checkpoint grid from burn-in 1, the horizon or any burn-in
    between, or any strictly increasing times in [1, horizon], from every
    time down to one."""
    grids = st.one_of(st.just(1), st.just(horizon), st.integers(1, horizon)).map(
        lambda burn: c.checkpoint_grid(horizon, burn))
    times = st.sets(st.integers(1, horizon), min_size=1).map(lambda s: tuple(sorted(s)))
    return grids | times | st.just(tuple(range(1, horizon + 1)))


def grid_or_none(horizon, burn_in):
    """The checkpoint grid from the burn-in, or None where the burn-in lies
    beyond the horizon."""
    try:
        return c.checkpoint_grid(horizon, burn_in)
    except PolicyError:
        return None


@st.composite
def coded_series(draw):
    """Nested time sets S_j = {n : codes[n-1] <= j}, j < levels, over up to
    400 times (so up to 7 words, the last one partial), with checkpoints."""
    levels = draw(st.integers(1, 8))
    horizon = draw(st.integers(1, 400))
    # a narrow code range leaves low levels empty and high levels full
    lo = draw(st.integers(0, levels))
    hi = draw(st.integers(lo, levels))
    codes = draw(st.lists(st.integers(lo, hi), min_size=horizon, max_size=horizon))
    cps = draw(checkpoints_for(horizon))
    return np.array(codes), levels, cps


def planes_of(codes, levels):
    """The packed planes of the sets {codes <= j}, j < levels."""
    return np.stack([c.pack_times(codes <= j) for j in range(levels)])


def nested_sets_oracle(codes, levels, cps):
    return [per_set_density(codes <= j, cps) for j in range(levels)]


class TestNestedDensityKernel:
    @given(coded_series())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_set_oracle(self, case):
        codes, levels, cps = case
        got = de.nested_density_estimates(planes_of(codes, levels), codes.size, cps)
        want = nested_sets_oracle(codes, levels, cps)
        assert [estimate_key(e) for e in got] == [estimate_key(e) for e in want]

    @pytest.mark.parametrize("value", [0, 2, 4])
    @pytest.mark.parametrize("policy", [
        c.checkpoint_grid(500, 1),
        tuple(range(1, 501)),
        (500,),
    ])
    def test_empty_and_full_levels_tie_everywhere(self, value, policy):
        # a constant code v leaves levels < v empty and levels >= v full:
        # every checkpoint ties at 0 or 1, for each checkpoint policy: the
        # grid from burn-in 1, every time, or the horizon alone
        for levels in (3, 4):
            code = min(value, levels)
            codes = np.full(500, code)
            got = de.nested_density_estimates(planes_of(codes, levels), 500, policy)
            for j, e in enumerate(got):
                expect = 1 if j >= code else 0
                assert e.upper == e.lower == expect
                assert e.count_at_horizon == 500 * expect
            assert [estimate_key(e) for e in got] == [
                estimate_key(e) for e in nested_sets_oracle(codes, levels, policy)
            ]

    @pytest.mark.parametrize("levels", [1, 3, 4, 16])
    def test_codes_out_of_range_rejected(self, levels):
        # a bit past the horizon in any plane of the stack, in the last word
        # or in a word of its own, even past the last checkpoint
        message = "no bit set past time"
        for horizon, bit in ((3, 3), (3, 63), (64, 64), (65, 65), (65, 127)):
            planes = np.zeros((levels, -(-max(horizon, bit + 1) // 64)), dtype=np.uint64)
            planes[-1, bit // 64] = np.uint64(1) << np.uint64(bit % 64)
            if planes.shape[1] == -(-horizon // 64):
                with pytest.raises(ValidationError, match=message):
                    de.nested_density_estimates(planes, horizon, (1, horizon))
                with pytest.raises(ValidationError, match=message):
                    de.nested_density_estimates(planes, horizon, (1,))
            else:
                with pytest.raises(ValidationError, match="planes of"):
                    de.nested_density_estimates(planes, horizon, (1,))
        with pytest.raises(ValidationError):
            de.nested_density_estimates(np.zeros((0, 1), np.uint64), 3, (1, 2, 3))

    def test_negative_codes_are_validation_errors(self):
        # signed words, even with the same bits, are not planes
        for dtype in (np.int64, np.int8, np.int32):
            with pytest.raises(ValidationError, match="planes must be uint64 words"):
                de.nested_density_estimates(np.array([[-1, 0]], dtype=dtype), 100, (1, 2, 3))

    def test_non_integer_codes_are_validation_errors(self):
        for planes in (np.array([[0.0]]), np.array([[True]]), np.array([["0"]]),
                       c.pack_times([True, False]).view(np.int64)[None]):
            with pytest.raises(ValidationError, match="planes must be uint64 words"):
                de.nested_density_estimates(planes, 2, (1, 2))

    @pytest.mark.parametrize("cps", [(), (0, 2), (1, 4), (2, 2), (3, 1)], ids=repr)
    def test_bad_checkpoints_are_policy_errors(self, cps):
        with pytest.raises(PolicyError, match="checkpoints must be strictly increasing"):
            de.nested_density_estimates(planes_of(np.array([0, 1, 2]), 2), 3, cps)

    @given(coded_series(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_empirical_density_and_density_along_match_oracle(self, case, data):
        codes, _, cps = case
        s = codes == codes[0]
        burn_in = data.draw(burn_ins_for(s.size))
        grid = grid_or_none(s.size, burn_in)
        if grid is None:
            with pytest.raises(PolicyError):
                density(s, burn_in)
        else:
            assert estimate_key(density(s, burn_in)) == estimate_key(
                per_set_density(s, grid)
            )
        ratios = [Fraction(int(np.count_nonzero(s[:n])), n) for n in cps]
        assert density_along(s, cps, "upper") == max(ratios)
        assert density_along(s, cps, "lower") == min(ratios)


# horizons at and around the word edges, and one of many words
EDGE_HORIZONS = [1, 63, 64, 65, 127, 128, 129, 2**16 + 1]


class TestPlaneWordEdges:
    @pytest.mark.parametrize("horizon", EDGE_HORIZONS)
    def test_kernel_matches_per_set_oracle(self, horizon):
        # random, empty and full sets, and a set holding only the last time,
        # counted at every multiple of 64 below the horizon and at it
        rng = np.random.default_rng(horizon)
        last = np.zeros(horizon, dtype=bool)
        last[-1] = True
        masks = [rng.random(horizon) < p for p in (0.1, 0.5, 0.9)]
        masks += [np.zeros(horizon, bool), np.ones(horizon, bool), last]
        cps = tuple(range(64, horizon, 64)) + (horizon,)
        for pick in (cps, cps[-1:], (1,) + cps if cps[0] > 1 else cps):
            got = de.nested_density_estimates(
                np.stack([c.pack_times(m) for m in masks]), horizon, pick)
            want = [per_set_density(m, pick) for m in masks]
            assert [estimate_key(e) for e in got] == [estimate_key(e) for e in want]

    @pytest.mark.parametrize("horizon,cps", [
        # several checkpoints in one word, in the first word and later ones
        (200, (1, 2, 3, 17, 63, 64, 65, 66, 100, 127, 128, 129, 191, 192, 200)),
        # a checkpoint at every time
        (130, tuple(range(1, 131))),
        # n = N on a multiple of 64, the word past the last one
        (64, (64,)),
        (128, (1, 64, 127, 128)),
        (2**16, (1, 64, 65, 2**16 - 64, 2**16 - 1, 2**16)),
    ], ids=lambda v: v if isinstance(v, int) else f"{len(v)}cps")
    def test_checkpoint_segments_match_per_set_oracle(self, horizon, cps):
        rng = np.random.default_rng(horizon)
        masks = [rng.random(horizon) < p for p in (0.1, 0.5, 0.9)]
        masks += [np.zeros(horizon, bool), np.ones(horizon, bool)]
        got = de.nested_density_estimates(
            np.stack([c.pack_times(m) for m in masks]), horizon, cps)
        want = [per_set_density(m, cps) for m in masks]
        assert [estimate_key(e) for e in got] == [estimate_key(e) for e in want]

    @pytest.mark.parametrize("horizon", EDGE_HORIZONS)
    def test_pack_round_trip_and_clear_tail(self, horizon):
        mask = np.random.default_rng(horizon + 1).random(horizon) < 0.5
        plane = c.pack_times(mask)
        assert plane.dtype == np.uint64 and plane.shape == (-(-horizon // 64),)
        assert np.array_equal(c.unpack_times(plane, horizon), mask)
        assert int(np.bitwise_count(plane).sum()) == np.count_nonzero(mask)
        full = c.pack_times(np.ones(horizon, bool))
        assert int(full[-1]) == (1 << (horizon % 64 or 64)) - 1

    def test_malformed_planes_are_validation_errors(self):
        good = c.pack_times(np.ones(65, bool))[None]
        de.nested_density_estimates(good, 65, (65,))
        for planes, horizon, message in (
            (good.astype(np.int64), 65, "uint64"),
            (good.astype(np.float64), 65, "uint64"),
            (good[:, :1], 65, "planes of 2 words"),
            (np.concatenate([good, good], axis=1), 65, "planes of 2 words"),
            (good[0], 65, "planes of 2 words"),
            (good, 64, "planes of 1 words"),
            (good | np.uint64(2), 65, "no bit set past time 65"),
            (c.pack_times(np.ones(128, bool))[None], 127, "no bit set past time 127"),
        ):
            with pytest.raises(ValidationError, match=message):
                de.nested_density_estimates(planes, horizon, (1,))


class TestExactExtremes:
    def test_float_tie_settled_exactly(self):
        # consecutive Fibonacci ratios F43/F44 > F44/F45 round to the same
        # float, so only the integer tie-break tells them apart
        f = [0, 1]
        while len(f) < 46:
            f.append(f[-1] + f[-2])
        counts = np.array([[f[44]], [f[43]]])
        ns = [f[45], f[44]]
        assert f[44] / f[45] == f[43] / f[44]
        (upper,), (lower,) = de._exact_extremes(counts, ns)
        assert upper == Fraction(f[43], f[44])
        assert lower == Fraction(f[44], f[45])

    def test_beyond_int64_products_falls_back_to_fractions(self):
        big = 2**60
        counts = np.array([[big - 1], [big - 3]])
        ns = [big, big - 2]
        (upper,), (lower,) = de._exact_extremes(counts, ns)
        assert upper == Fraction(big - 1, big)
        assert lower == Fraction(big - 3, big - 2)

    def test_closest_ratios_just_below_the_float_bound(self):
        # (n-2)/(n-1) and (n-1)/n differ by 1/(n(n-1)), the least two
        # ratios with these denominators can, a few ulps below 1; with n =
        # isqrt(2**51) the floats pick them, and must pick them exactly
        n = math.isqrt(2**51)
        counts = np.array([[n - 2, 1], [n - 1, 2], [n - 3, 1]])
        ns = [n - 1, n, n - 2]
        assert n * n * max(c / m for c, m in zip(counts[:, 0], ns)) < 2**51
        assert len({c / m for c, m in zip(counts[:, 0], ns)}) == 3
        uppers, lowers = de._exact_extremes(counts, ns)
        for j in range(2):
            ratios = [Fraction(int(counts[i, j]), m) for i, m in enumerate(ns)]
            assert uppers[j] == max(ratios) and lowers[j] == min(ratios)

    @given(
        st.lists(
            st.tuples(st.integers(1, 2**31), st.floats(0, 1)), min_size=1, max_size=40
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_max_min(self, rows, width):
        ns = [n for n, _ in rows]
        counts = np.array(
            [[int(n * frac) // (j + 1) for j in range(width)] for n, frac in rows]
        )
        uppers, lowers = de._exact_extremes(counts, ns)
        for j in range(width):
            ratios = [Fraction(int(counts[i, j]), n) for i, n in enumerate(ns)]
            assert uppers[j] == max(ratios) and lowers[j] == min(ratios)


DYADIC = [0.0, 2.0**-16, 2.0**-8, 0.125, 0.25, 0.5, 0.75, 1.0]
# distances equal to a threshold check the strict d_n < t at equality
TIES = DYADIC + c.THRESHOLD_GRID.tolist()


class TestPhiKernelDifferential:
    @given(st.lists(st.sampled_from(TIES), min_size=1, max_size=300), st.data())
    @settings(max_examples=120, deadline=None)
    def test_phi_profile_matches_per_threshold_oracle(self, values, data):
        burn_in = data.draw(burn_ins_for(len(values)))
        d = values_series(np.array(values))
        cps = grid_or_none(d.horizon, burn_in)
        if cps is None:
            return
        prof = c.phi_profile(d, burn_in)
        want = per_threshold_phi(values, cps)
        assert [estimate_key(e) for e in prof.estimates] == [estimate_key(e) for e in want]

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=100, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_default_grid_matches_per_threshold_oracle(self, values):
        d = values_series(np.array(values))
        prof = c.phi_profile(d)
        want = per_threshold_phi(values, c.checkpoint_grid(len(values)))
        assert [estimate_key(e) for e in prof.estimates] == [estimate_key(e) for e in want]


class TestValueChunks:
    @pytest.mark.parametrize("extra", [-1, 0, 5, 64])
    def test_planes_across_chunks_match_whole_compares(self, extra):
        # values drawn from the grid points (ties) and floats, over two
        # chunks plus a partial one, packed chunk by chunk
        rng = np.random.default_rng(extra + 2)
        size = 2 * de.VALUE_CHUNK + extra
        values = np.where(rng.random(size) < 0.5, rng.choice(TIES, size), rng.random(size))
        d = c.DistanceSeries.from_values(values)
        assert grid_planes(d).tobytes() == compared_planes(values).tobytes()

    def test_absolute_distances_built_per_chunk(self):
        rng = np.random.default_rng(9)
        a, b = rng.random((2, de.VALUE_CHUNK + 100))
        d = c.DistanceSeries.from_values(a, b)
        assert grid_planes(d).tobytes() == compared_planes(np.abs(a - b)).tobytes()
        # refusals are seen in any chunk, the last included
        for bad, message in ((np.nan, "NaN"), (2.0, r"\[0, 1\]")):
            late = a.copy()
            late[-1] = bad
            with pytest.raises(ValidationError, match=message):
                c.DistanceSeries.from_values(late, b)
        with pytest.raises(ValidationError, match="nonempty 1-d"):
            c.DistanceSeries.from_values(a, b[:-1])


@st.composite
def shared_plane_series(draw):
    """A DistanceSeries that stores each distinct threshold set once, with
    the grid points reading it through `rows`, as the Hamming series does,
    and its N float distances. Values come from a small pool holding the
    threshold points (ties), 0, 1 and values between, so sets repeat along
    the grid, and often nothing lies below the first threshold or
    everything below the last."""
    pool = st.sampled_from(TIES) | st.floats(0, 1, allow_nan=False)
    table = draw(st.lists(pool, min_size=1, max_size=12))
    horizon = draw(st.integers(1, 300))
    index = draw(st.lists(st.integers(0, len(table) - 1), min_size=horizon, max_size=horizon))
    values = np.array(table)[index]
    return shared_planes(values), values


def shared_planes(values):
    sets = [c.pack_times(values < t).tobytes() for t in c.THRESHOLD_GRID]
    distinct = sorted(set(sets))
    planes = np.stack([np.frombuffer(b, dtype=np.uint64) for b in distinct])
    return c.DistanceSeries(planes, values.size, tuple(distinct.index(b) for b in sets))


class TestIndexedPhi:
    @given(shared_plane_series(), st.data())
    @example((shared_planes(np.array([0.5, 0.75, 0.75, 0.5])), np.array([0.5, 0.75, 0.75, 0.5])),
             None)  # nothing below the low thresholds, everything below the top one
    @example((shared_planes(np.array([1.0, 0.0, 1.0])), np.array([1.0, 0.0, 1.0])),
             None)  # the Hamming indicator: one set at every grid point
    @settings(max_examples=150, deadline=None)
    def test_phi_profile_matches_per_threshold_oracle(self, case, data):
        d, values = case
        burn_in = 1 if data is None else data.draw(burn_ins_for(d.horizon))
        cps = grid_or_none(d.horizon, burn_in)
        if cps is None:
            return
        prof = c.phi_profile(d, burn_in)
        want = per_threshold_phi(values, cps)
        assert [estimate_key(e) for e in prof.estimates] == [estimate_key(e) for e in want]


@st.composite
def symbol_pairs(draw):
    n = draw(st.integers(1, 400))
    arity = draw(st.integers(2, 3))
    a = np.array(draw(st.lists(st.integers(0, arity - 1), min_size=n, max_size=n)))
    # flip only a few positions so that long agreement runs occur
    flips = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 20)))
    b = a.copy()
    for i in flips:
        b[i] = (b[i] + 1) % arity
    return a, b


def symbol_pair(a, b):
    spec = c.FullShift(3, (1 / 3, 1 / 3, 1 / 3))
    ta = c.Trajectory(spec, len(a), symbols=np.asarray(a, dtype=np.int64))
    tb = c.Trajectory(spec, len(b), symbols=np.asarray(b, dtype=np.int64))
    return c.OrbitPair(ta, tb)


def grid_planes(d):
    """The series' packed threshold set at every grid point."""
    return np.stack([d.planes[r] for r in d.rows])


def compared_planes(values):
    """The packed sets {n : d_n < t} of N float distances, one compare per
    grid point."""
    return np.stack([c.pack_times(values < t) for t in c.THRESHOLD_GRID])


def cantor_planes_match_oracle(a, b):
    d = c.distance_series(symbol_pair(a, b), "cantor")
    return grid_planes(d).tobytes() == compared_planes(cantor_values_direct(a, b)).tobytes()


class TestCantorValues:
    """The Cantor planes against `oracles.cantor_values_direct(a, b) < t`."""

    @given(symbol_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_bytes(self, pair):
        assert cantor_planes_match_oracle(*pair)

    @pytest.mark.parametrize("last", [1, 17, 64, 1100, 2999, 3000])
    def test_agreeing_tail_is_in_every_grid_set_and_depth(self, last):
        # the pair agrees on its last `last` times (all of them at 3000): a
        # run that agrees up to the horizon is unbounded, so d = 0 there,
        # and every Cantor grid set and every cylinder depth holds those
        # times, while the one disagreement before them is in none
        a = np.zeros(3000, dtype=np.int64)
        b = a.copy()
        if last < 3000:
            b[2999 - last] = 1
        assert cantor_planes_match_oracle(a, b)
        pair = symbol_pair(a, b)
        scheme = c.cylinder_scheme(20)
        sets = [c.unpack_times(p, 3000) for p in grid_planes(c.distance_series(pair, "cantor"))]
        sets += [c.unpack_times(c.same_atom_series(pair, scheme, k), 3000) for k in range(1, 21)]
        for s in sets:
            assert s[3000 - last :].all()
            assert last == 3000 or not s[2999 - last]

    def test_sampled_tracks_match_oracle_bytes(self):
        for spec in (c.FullShift(2, (0.5, 0.5)), c.FullShift(3, (0.6, 0.3, 0.1))):
            pair = c.make_pair(spec, 20000, (3, 4))
            assert cantor_planes_match_oracle(pair.a.symbols, pair.b.symbols)

    @pytest.mark.parametrize("run", [1073, 1074, 1075, 1076, 2500])
    def test_runs_around_the_clip_match_oracle_bytes(self, run):
        # agreement runs of every length near 1075, where the oracle's 2^-L
        # reaches 0.0, each ended by one disagreement, then an agreeing tail
        # whose last 17 times are capped by the horizon
        a = np.zeros(3 * run + 50, dtype=np.int64)
        b = a.copy()
        b[[run, 2 * run + 1]] = 1
        assert cantor_planes_match_oracle(a, b)
        # and a disagreement in each of the last 17 times
        for back in range(1, 18):
            b = a.copy()
            b[-back] = 1
            assert cantor_planes_match_oracle(a, b)


class TestCantorDepths:
    def test_depths_pinned_against_the_cantor_values(self):
        # grid point t_j reads {2^-L < t_j} = {L >= k_j}: k_j is the number
        # of values 2^-L with L >= 0 that are >= t_j
        assert sy.CANTOR_DEPTHS == (17, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)
        for t, k in zip(c.THRESHOLD_GRID.tolist(), sy.CANTOR_DEPTHS):
            assert 2.0**-k < t <= 2.0 ** -(k - 1)
            assert sum(2.0**-L >= t for L in range(1100)) == k


class TestHammingValues:
    @given(symbol_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_float_indicator_bytes(self, pair):
        a, b = pair
        d = c.distance_series(symbol_pair(a, b), "hamming-indicator")
        assert d.planes.shape == (1, -(-a.size // 64)) and set(d.rows) == {0}
        indicator = (a != b).astype(np.float64)
        assert grid_planes(d).tobytes() == compared_planes(indicator).tobytes()


class TestCodedPhi:
    @given(symbol_pairs(), st.sampled_from(["cantor", "hamming-indicator"]))
    @settings(max_examples=150, deadline=None)
    def test_agreement_planes_match_compares_over_values(self, pair, metric):
        a, b = pair
        p = symbol_pair(a, b)
        d = c.distance_series(p, metric)
        values = float_distance_values(p, metric)
        assert grid_planes(d).tobytes() == compared_planes(values).tobytes()
        prof = c.phi_profile(d, 1)
        want = c.phi_profile(c.DistanceSeries.from_values(values), 1)
        assert [estimate_key(e) for e in prof.estimates] == [
            estimate_key(e) for e in want.estimates
        ]

    def test_checkpoints_built_once_per_grid(self):
        first = c.checkpoint_grid(5000, 7)
        assert c.checkpoint_grid(5000, 7) is first
        assert isinstance(first, tuple) and first[0] == 7 and first[-1] == 5000


class TestCodedSeriesValidation:
    def test_plane_words_and_rows(self):
        planes = c.pack_times(np.ones(70, bool))[None]
        d = c.DistanceSeries(planes, 70, (0,) * 16)
        assert c.phi_profile(d, 1).phi_lower.tolist() == [1.0] * 16
        for bad_planes, horizon in ((planes.astype(np.int64), 70), (planes[:, :1], 70),
                                    (planes, 64), (planes, 0)):
            with pytest.raises(ValidationError):
                c.DistanceSeries(bad_planes, horizon, (0,) * 16)
        for rows in ((0,) * 15, (0,) * 15 + (1,), (0,) * 15 + (-1,), ()):
            with pytest.raises(ValidationError, match="one plane row in range"):
                c.DistanceSeries(planes, 70, rows)
