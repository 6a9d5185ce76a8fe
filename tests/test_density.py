import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import density as de
from chaoslab import systems as sy
from chaoslab.errors import PolicyError, ValidationError
from oracles import boundary_extrema, cantor_values_direct, per_set_density, per_threshold_phi


def doubling_runs(horizon):
    runs, length, agree, total = [], 2, True, 0
    while total < horizon:
        runs.append((length, agree))
        total += length
        length, agree = 2 * length, not agree
    return runs


def full_policy():
    return c.CheckpointPolicy(burn_in=1)


def first_times(count, horizon):
    """Mask over times 1..horizon of the set {1, ..., count}."""
    mask = np.zeros(horizon, dtype=bool)
    mask[:count] = True
    return mask


class TestEmpiricalDensity:
    def test_full_set(self):
        est = c.empirical_density(np.ones(50, dtype=bool), full_policy())
        assert est.upper == 1 and est.lower == 1

    def test_empty_set(self):
        est = c.empirical_density(np.zeros(50, dtype=bool), full_policy())
        assert est.upper == 0 and est.lower == 0

    def test_doubling_schedule_matches_boundary_oracle(self):
        horizon = 4**10
        runs = doubling_runs(horizon)
        mask = c.systems.runs_to_mask(runs, horizon)
        est = c.empirical_density(mask)
        upper_oracle, lower_oracle = boundary_extrema(runs, horizon, est.burn_in)
        # the oracle's boundary values converge to 2/3 and 1/3
        assert abs(float(upper_oracle) - 2 / 3) <= 0.02
        assert abs(float(lower_oracle) - 1 / 3) <= 0.02
        assert abs(est.upper_float - float(upper_oracle)) <= 0.02
        assert abs(est.lower_float - float(lower_oracle)) <= 0.02

    def test_burn_in_beyond_horizon_is_policy_error(self):
        with pytest.raises(PolicyError):
            c.empirical_density(first_times(1, 5), c.CheckpointPolicy(burn_in=10))


class TestDensityAlong:
    def test_full_set_any_checkpoints(self):
        assert c.density_along(np.ones(100, dtype=bool), [3, 50, 100]) == 1

    def test_run_boundary_checkpoints(self):
        horizon = 4**10
        runs = doubling_runs(horizon)
        mask = c.systems.runs_to_mask(runs, horizon)
        bounds = np.cumsum([l for l, _ in runs])
        agree_ends = [int(n) for n, (_, a) in zip(bounds, runs) if a and n >= 1000]
        disagree_ends = [int(n) for n, (_, a) in zip(bounds, runs) if not a and n >= 1000]
        agree_ends = [n for n in agree_ends if n <= horizon]
        disagree_ends = [n for n in disagree_ends if n <= horizon]
        assert abs(float(c.density_along(mask, agree_ends, "lower")) - 2 / 3) <= 0.02
        assert abs(float(c.density_along(mask, disagree_ends, "lower")) - 1 / 3) <= 0.02

    def test_empty_checkpoints_error(self):
        s = first_times(1, 10)
        with pytest.raises(PolicyError):
            c.density_along(s, [])

    def test_out_of_range_checkpoints_error(self):
        s = first_times(1, 10)
        with pytest.raises(PolicyError):
            c.density_along(s, [5, 11])
        with pytest.raises(PolicyError):
            c.density_along(s, [0, 5])

    def test_upper_variant(self):
        s = first_times(3, 10)
        assert c.density_along(s, [3, 10], "upper") == 1
        assert c.density_along(s, [3, 10], "lower") == Fraction(3, 10)


class TestPhiProfile:
    def test_all_zero_series(self):
        d = c.DistanceSeries(np.zeros(500), 1.0)
        prof = c.phi_profile(d, policy=full_policy())
        assert np.all(prof.phi_star == 1.0) and np.all(prof.phi_lower == 1.0)

    def test_all_one_series(self):
        d = c.DistanceSeries(np.ones(500), 1.0)
        prof = c.phi_profile(d, grid=np.array([0.5]), policy=full_policy())
        assert prof.phi_star[0] == 0.0 and prof.phi_lower[0] == 0.0

    def test_phi_floats_computed_once_and_read_only(self):
        d = c.DistanceSeries(np.random.default_rng(3).random(2000), 1.0)
        prof = c.phi_profile(d, policy=full_policy())
        for name, want in (
            ("phi_star", [float(e.upper) for e in prof.estimates]),
            ("phi_lower", [float(e.lower) for e in prof.estimates]),
        ):
            first = getattr(prof, name)
            assert getattr(prof, name) is first
            assert not first.flags.writeable
            assert first.dtype == np.float64 and first.tolist() == want

    @pytest.mark.parametrize("diameter", [1.0, 2.5, 1e-3])
    def test_default_grid_cached_read_only(self, diameter):
        grid = c.default_threshold_grid(diameter)
        assert c.default_threshold_grid(diameter) is grid
        assert not grid.flags.writeable
        want = np.geomspace(diameter * 2**-16, diameter, 16)
        assert grid.tobytes() == want.tobytes()
        prof = c.phi_profile(c.DistanceSeries(np.zeros(200), diameter), policy=full_policy())
        assert prof.thresholds is grid

    def test_nonpositive_grid_rejected(self):
        d = c.DistanceSeries(np.zeros(10), 1.0)
        with pytest.raises(PolicyError):
            c.phi_profile(d, grid=np.array([0.0, 0.5]), policy=full_policy())

    def test_series_validation(self):
        with pytest.raises(ValidationError):
            c.DistanceSeries(np.array([0.2, np.nan]), 1.0)
        with pytest.raises(ValidationError):
            c.DistanceSeries(np.array([0.2, 1.2]), 1.0)
        with pytest.raises(ValidationError):
            c.DistanceSeries(np.array([]), 1.0)

    def test_bernoulli_calibration_small(self):
        # LLN oracle: agreement probability of two fair tracks is exactly 1/2
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        d = c.DistanceSeries(
            (rng_a.integers(0, 2, 20000) != rng_b.integers(0, 2, 20000)).astype(float)
        )
        prof = c.phi_profile(d, policy=c.CheckpointPolicy(burn_in=2000))
        assert np.all(np.abs(prof.phi_star - 0.5) <= 0.03)
        assert np.all(np.abs(prof.phi_lower - 0.5) <= 0.03)


class TestBesicovitch:
    def test_constant_series(self):
        zeros = c.DistanceSeries(np.zeros(200), 1.0)
        ones = c.DistanceSeries(np.ones(200), 1.0)
        assert tuple(c.besicovitch_bounds(zeros, full_policy())) == (0, 0)
        assert tuple(c.besicovitch_bounds(ones, full_policy())) == (1, 1)

    def test_doubling_series_bounds(self):
        horizon = 4**10
        mask = c.systems.runs_to_mask(doubling_runs(horizon), horizon)
        d = c.DistanceSeries((~mask).astype(float), 1.0)
        low, high = c.besicovitch_bounds(d)
        assert abs(float(low) - 1 / 3) <= 0.02
        assert abs(float(high) - 2 / 3) <= 0.02

    @given(st.lists(st.integers(0, 1), min_size=30, max_size=200), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_indicator_identity_with_zero_set(self, bits, burn):
        # the mean of an indicator is a count ratio: besicovitch bounds equal
        # (1 - upper, 1 - lower) of the zero set, exactly
        values = np.array(bits, dtype=float)
        d = c.DistanceSeries(values, 1.0)
        policy = c.CheckpointPolicy(burn_in=min(burn, len(bits)))
        low, high = c.besicovitch_bounds(d, policy)
        est = c.empirical_density(values == 0, policy)
        assert low == 1 - est.upper
        assert high == 1 - est.lower


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
        policy = c.CheckpointPolicy(burn_in=min(burn, small.size))
        est_small = c.empirical_density(small, policy)
        est_big = c.empirical_density(big, policy)
        assert est_small.upper <= est_big.upper
        assert est_small.lower <= est_big.lower

    @given(nested_masks(), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_complement_identity(self, sets, burn):
        s, _ = sets
        policy = c.CheckpointPolicy(burn_in=min(burn, s.size))
        est = c.empirical_density(s, policy)
        est_c = c.empirical_density(~s, policy)
        assert est.upper == 1 - est_c.lower
        assert est.lower == 1 - est_c.upper

    @given(
        st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=20, max_size=200),
        st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_profile_monotone_and_ordered(self, values, burn):
        d = c.DistanceSeries(np.array(values, dtype=float), 1.0)
        policy = c.CheckpointPolicy(burn_in=min(burn, len(values)))
        prof = c.phi_profile(d, policy=policy)
        star, low = prof.phi_star, prof.phi_lower
        assert np.all(np.diff(star) >= 0)
        assert np.all(np.diff(low) >= 0)
        assert np.all(low <= star)
        assert np.all((0 <= low) & (star <= 1))

    def test_profile_reaches_one_beyond_diameter(self):
        d = c.DistanceSeries(np.full(100, 0.25), 1.0)
        prof = c.phi_profile(
            d, grid=np.array([0.1, 1.0, 1.5]), policy=full_policy()
        )
        assert prof.phi_star[-1] == 1.0 and prof.phi_lower[-1] == 1.0


# --- the nested-time-set kernel against the per-set oracle -------------------


def estimate_key(e):
    return (e.upper, e.lower, e.checkpoints, e.burn_in, e.count_at_horizon)


@st.composite
def policies_for(draw, horizon):
    """Default policy, or burn-in 1, burn-in == horizon or any burn-in, with
    ratios from the finest (1.001) to coarse ones."""
    if draw(st.booleans()):
        return c.CheckpointPolicy()
    burn = draw(st.one_of(st.just(1), st.just(horizon), st.integers(1, horizon)))
    ratio = draw(st.sampled_from([1.001, 1.05, 1.3, 2.0]))
    return c.CheckpointPolicy(burn_in=burn, ratio=ratio)


@st.composite
def coded_series(draw):
    levels = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, 400))
    # a narrow code range leaves low levels empty and high levels full
    lo = draw(st.integers(0, levels))
    hi = draw(st.integers(lo, levels))
    codes = draw(st.lists(st.integers(lo, hi), min_size=horizon, max_size=horizon))
    policy = draw(policies_for(horizon))
    return np.array(codes, dtype=np.intp), levels, policy


def nested_sets_oracle(codes, levels, policy):
    return [per_set_density(codes <= j, policy) for j in range(levels)]


class TestNestedDensityKernel:
    @given(coded_series())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_set_oracle(self, case):
        codes, levels, policy = case
        if codes.size < policy.resolve_burn_in(codes.size):
            with pytest.raises(PolicyError):
                policy.checkpoints(codes.size)
            return
        got = de.nested_density_estimates(codes, levels, policy.checkpoints(codes.size))
        want = nested_sets_oracle(codes, levels, policy)
        assert [estimate_key(e) for e in got] == [estimate_key(e) for e in want]

    @pytest.mark.parametrize("value", [0, 2, 4])
    @pytest.mark.parametrize("policy", [
        c.CheckpointPolicy(burn_in=1),
        c.CheckpointPolicy(burn_in=1, ratio=1.001),
        c.CheckpointPolicy(burn_in=500),
    ])
    def test_empty_and_full_levels_tie_everywhere(self, value, policy):
        # a constant code v leaves levels < v empty and levels >= v full:
        # every checkpoint ties at 0 or 1
        codes = np.full(500, value, dtype=np.intp)
        got = de.nested_density_estimates(codes, 4, policy.checkpoints(500))
        for j, e in enumerate(got):
            expect = 1 if j >= value else 0
            assert e.upper == e.lower == expect
            assert e.count_at_horizon == 500 * expect
        assert [estimate_key(e) for e in got] == [
            estimate_key(e) for e in nested_sets_oracle(codes, 4, policy)
        ]

    def test_codes_out_of_range_rejected(self):
        cps = (1, 2, 3)
        with pytest.raises(ValidationError):
            de.nested_density_estimates(np.array([0, 3, 1]), 2, cps)
        with pytest.raises(ValidationError):
            de.nested_density_estimates(np.array([0, 3, 1], dtype=np.uint8), 2, cps)
        with pytest.raises(ValidationError):
            de.nested_density_estimates(np.array([0, -1, 1]), 2, cps)
        with pytest.raises(ValidationError):
            de.nested_density_estimates(np.array([], dtype=np.intp), 2, cps)

    def test_negative_codes_are_validation_errors(self):
        for dtype in (np.intp, np.int8, np.int32):
            with pytest.raises(ValidationError, match=r"codes must lie in \[0, 2\]"):
                de.nested_density_estimates(np.array([0, -1, 2], dtype=dtype), 2, (1, 2, 3))

    def test_non_integer_codes_are_validation_errors(self):
        for codes in (np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.0]), np.array(["0", "1"])):
            with pytest.raises(ValidationError, match="codes must be integers"):
                de.nested_density_estimates(codes, 2, (1, 2))

    @pytest.mark.parametrize("cps", [(), (0, 2), (1, 4), (2, 2), (3, 1)], ids=repr)
    def test_bad_checkpoints_are_policy_errors(self, cps):
        with pytest.raises(PolicyError, match="checkpoints must be strictly increasing"):
            de.nested_density_estimates(np.array([0, 1, 2]), 2, cps)

    @given(coded_series())
    @settings(max_examples=60, deadline=None)
    def test_empirical_density_and_density_along_match_oracle(self, case):
        codes, _, policy = case
        s = codes == codes[0]
        if s.size >= policy.resolve_burn_in(s.size):
            assert estimate_key(c.empirical_density(s, policy)) == estimate_key(
                per_set_density(s, policy)
            )
        cps = list(range(1, s.size + 1, 3))
        ratios = [Fraction(int(np.count_nonzero(s[:n])), n) for n in cps]
        assert c.density_along(s, cps, "upper") == max(ratios)
        assert c.density_along(s, cps, "lower") == min(ratios)


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


class TestPhiKernelDifferential:
    @given(
        st.lists(st.sampled_from(DYADIC), min_size=1, max_size=300),
        st.lists(st.sampled_from(DYADIC[1:] + [0.1, 0.3, 1.5]), min_size=1, max_size=8,
                 unique=True),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_phi_profile_matches_per_threshold_oracle(self, values, grid, data):
        # grid points drawn from the distance values themselves check the
        # strict d_n < t at equality
        grid = np.array(sorted(grid))
        policy = data.draw(policies_for(len(values)))
        d = c.DistanceSeries(np.array(values), 1.0)
        if d.horizon < policy.resolve_burn_in(d.horizon):
            return
        prof = c.phi_profile(d, grid=grid, policy=policy)
        want = per_threshold_phi(values, grid, policy)
        assert [estimate_key(e) for e in prof.estimates] == [estimate_key(e) for e in want]

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=100, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_default_grid_matches_per_threshold_oracle(self, values):
        d = c.DistanceSeries(np.array(values), 1.0)
        prof = c.phi_profile(d)
        want = per_threshold_phi(values, c.default_threshold_grid(), c.CheckpointPolicy())
        assert [estimate_key(e) for e in prof.estimates] == [estimate_key(e) for e in want]


@st.composite
def symbol_pairs(draw):
    n = draw(st.integers(1, 400))
    alphabet = draw(st.integers(2, 3))
    a = np.array(draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n)))
    # flip only a few positions so that long agreement runs occur
    flips = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 20)))
    b = a.copy()
    for i in flips:
        b[i] = (b[i] + 1) % alphabet
    return a, b


def symbol_pair(a, b):
    spec = c.FullShift(3, (1 / 3, 1 / 3, 1 / 3))
    ta = c.Trajectory(spec, len(a), None, symbols=np.asarray(a, dtype=np.int64))
    tb = c.Trajectory(spec, len(b), None, symbols=np.asarray(b, dtype=np.int64))
    return c.OrbitPair(ta, tb)


def cantor_coded(a, b):
    """The Cantor series' float values, gathered from its (table, index)."""
    return c.distance_series(symbol_pair(a, b), "cantor").values


class TestCantorValues:
    @given(symbol_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_bytes(self, pair):
        a, b = pair
        assert cantor_coded(a, b).tobytes() == cantor_values_direct(a, b).tobytes()

    def test_all_agreeing_pair_underflows_like_oracle(self):
        # agreement runs past 1074 steps go through the subnormals to 0
        a = np.zeros(3000, dtype=np.int64)
        got = cantor_coded(a, a)
        assert got.tobytes() == cantor_values_direct(a, a).tobytes()
        assert got[0] == 0.0 and got[-1] == 0.5

    def test_sampled_tracks_match_oracle_bytes(self):
        for spec in (c.FullShift(2, (0.5, 0.5)), c.FullShift(3, (0.6, 0.3, 0.1))):
            pair = c.make_pair(spec, 20000, (3, 4))
            a, b = pair.a.symbols, pair.b.symbols
            got = c.distance_series(pair, "cantor").values
            assert got.tobytes() == cantor_values_direct(a, b).tobytes()

    @pytest.mark.parametrize("run", [1073, 1074, 1075, 1076, 2500])
    def test_runs_around_the_clip_match_oracle_bytes(self, run):
        # agreement runs of every length near the 1075 clip, each ended by
        # one disagreement, then an agreeing tail
        a = np.zeros(3 * run + 50, dtype=np.int64)
        b = a.copy()
        b[[run, 2 * run + 1]] = 1
        d = c.distance_series(symbol_pair(a, b), "cantor")
        assert d.index.dtype == np.int32 and int(d.index.max()) <= sy.CANTOR_CLIP
        assert d.values.tobytes() == cantor_values_direct(a, b).tobytes()
        grid = np.ldexp(1.0, -np.array([1074, 1073, 1000, 3, 0]))
        codes = np.searchsorted(grid, d.table, side="right")[d.index]
        assert np.array_equal(codes, np.searchsorted(grid, d.values, side="right"))


class TestHammingValues:
    @given(symbol_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_float_indicator_bytes(self, pair):
        a, b = pair
        d = c.distance_series(symbol_pair(a, b), "hamming-indicator")
        assert d.index.dtype == np.uint8
        assert d.values.tobytes() == (a != b).astype(np.float64).tobytes()


# grids whose points equal some 2^-j (so d_n = t ties are exercised), down
# to the smallest subnormal 2^-1074, plus a few points off the table
dyadic_grids = st.lists(
    st.one_of(
        st.integers(0, 1074).map(lambda j: float(np.ldexp(1.0, -j))),
        st.sampled_from([float(np.ldexp(1.0, -1074)), 0.3, 0.7, 1.5, 1e-300]),
    ),
    min_size=1,
    max_size=12,
    unique=True,
).map(lambda g: np.array(sorted(g)))


class TestCodedPhi:
    @given(symbol_pairs(), dyadic_grids, st.sampled_from(["cantor", "hamming-indicator"]))
    @settings(max_examples=150, deadline=None)
    def test_table_codes_match_searchsorted_over_values(self, pair, grid, metric):
        a, b = pair
        d = c.distance_series(symbol_pair(a, b), metric)
        coded = np.searchsorted(grid, d.table, side="right")[d.index]
        assert np.array_equal(coded, np.searchsorted(grid, d.values, side="right"))
        policy = c.CheckpointPolicy(burn_in=1)
        prof = c.phi_profile(d, grid=grid, policy=policy)
        want = c.phi_profile(c.DistanceSeries(d.values, 1.0), grid=grid, policy=policy)
        assert [estimate_key(e) for e in prof.estimates] == [
            estimate_key(e) for e in want.estimates
        ]

    def test_besicovitch_of_coded_series_matches_float_path(self):
        pair = c.make_pair(c.FullShift(2, (0.5, 0.5)), 5000, (5, 6))
        for metric in ("hamming-indicator", "cantor"):
            d = c.distance_series(pair, metric)
            plain = c.DistanceSeries(d.values, 1.0)
            assert tuple(c.besicovitch_bounds(d)) == tuple(c.besicovitch_bounds(plain))

    def test_checkpoints_built_once_per_grid(self):
        policy = c.CheckpointPolicy(burn_in=7, ratio=1.1)
        first = policy.checkpoints(5000)
        assert c.CheckpointPolicy(burn_in=7, ratio=1.1).checkpoints(5000) is first
        assert isinstance(first, tuple) and first[0] == 7 and first[-1] == 5000


class TestCodedSeriesValidation:
    def test_index_range_and_dtype(self):
        table = np.array([0.0, 0.5, 1.0])
        assert c.DistanceSeries(table, 1.0, index=np.array([2, 0, 1])).values.tolist() == [
            1.0, 0.0, 0.5,
        ]
        for bad in (np.array([0, 3]), np.array([-1, 0]), np.array([0.0, 1.0]),
                    np.array([], dtype=np.intp), np.zeros((2, 2), dtype=np.intp)):
            with pytest.raises(ValidationError):
                c.DistanceSeries(table, 1.0, index=bad)
        with pytest.raises(ValidationError):
            c.DistanceSeries(np.array([0.0, 2.0]), 1.0, index=np.array([0]))
