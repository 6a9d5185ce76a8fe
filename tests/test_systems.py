import numpy as np
import pytest
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab.errors import (
    InsufficientHorizon,
    MetricUnavailable,
    UsageError,
    ValidationError,
)
from chaoslab.blocks import QSchedule
from oracles import boundary_ratios, full_shift_direct, interval_orbit_direct, runs_to_mask


class TestSpecs:
    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            c.FullShift(2, (0.6, 0.6))
        with pytest.raises(ValidationError):
            c.FullShift(2, (-0.1, 1.1))
        with pytest.raises(ValidationError):
            c.FullShift(1, (1.0,))

    def test_interval_map_validation(self):
        with pytest.raises(ValidationError):
            c.IntervalMap("tent", 2.5)
        with pytest.raises(ValidationError):
            c.IntervalMap("logistic", 0.0)
        with pytest.raises(ValidationError):
            c.IntervalMap("cubic", 1.0)

    def test_odometer_divisibility(self):
        with pytest.raises(ValidationError):
            c.OdometerSpec((4, 10))
        c.OdometerSpec((4, 16))  # fine


class TestSampleOrbit:
    def test_degenerate_full_shift(self):
        spec = c.FullShift(2, (1.0, 0.0))
        t = c.sample_orbit(spec, 5, seed=7)
        assert np.array_equal(t.symbols, np.zeros(5, dtype=np.int64))

    def test_tent_hand_iteration(self):
        # T(x) = 2 min(x, 1-x): 0.25 -> 0.5 -> 1.0 -> 0.0 -> 0.0
        t = c.sample_orbit(c.IntervalMap("tent", 2.0), 5, seed=0, x0=0.25)
        assert np.allclose(t.reals, [0.25, 0.5, 1.0, 0.0, 0.0])
        assert np.array_equal(t.symbols, [0, 1, 1, 0, 0])

    def test_odometer_marker_track(self):
        track = c.systems.odometer_track((4, 16), 0, 8)
        assert track.tolist() == [2, 0, 0, 0, 1, 0, 0, 0]

    def test_determinism(self):
        spec = c.FullShift(3, (0.2, 0.3, 0.5))
        a = c.sample_orbit(spec, 200, seed=42)
        b = c.sample_orbit(spec, 200, seed=42)
        other = c.sample_orbit(spec, 200, seed=43)
        assert np.array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, other.symbols)

    def test_symbols_outside_the_alphabet_rejected(self):
        spec = c.FullShift(2, (0.5, 0.5))
        with pytest.raises(ValidationError):
            c.Trajectory(spec, 6, symbols=np.array([-3, 1, 0, -1, -3, 1]))
        with pytest.raises(ValidationError):
            c.Trajectory(spec, 3, symbols=np.array([0, 2, 1]))
        ok = c.Trajectory(spec, 3, symbols=np.array([0, 1, 1]))
        assert ok.symbols.tolist() == [0, 1, 1]

    def test_non_integer_symbols_rejected(self):
        # a cast to the narrow symbol dtype would turn 0.5 into 0
        spec = c.FullShift(2, (0.5, 0.5))
        with pytest.raises(ValidationError, match="symbols must be integers, got dtype float64"):
            c.Trajectory(spec, 3, symbols=np.array([0.5, 1.0, 0.0]))
        with pytest.raises(ValidationError, match="got dtype float64"):
            c.Trajectory(spec, 3, symbols=np.array([0.0, 1.0, 0.0]))

    def test_list_tracks_get_the_array_rules(self):
        spec = c.FullShift(2, (0.5, 0.5))
        t = c.Trajectory(spec, 3, symbols=[0, 1, 1], reals=[0.1, 0.2, 0.3])
        assert t.symbols.dtype == np.uint8 and t.symbols.tolist() == [0, 1, 1]
        assert t.reals.dtype == np.float64 and t.reals.tolist() == [0.1, 0.2, 0.3]
        for bad, match in (
            ([0, 2, 1], "symbols must be < arity"),
            ([0, -1, 1], "symbols must be >= 0"),
            ([0.5, 1.0, 0.0], "symbols must be integers"),
            ([0, 1], "track length must equal the horizon"),
            ([[0, 1, 1]], "track length must equal the horizon"),
        ):
            with pytest.raises(ValidationError, match=match):
                c.Trajectory(spec, 3, symbols=bad)
        with pytest.raises(ValidationError, match="track length must equal the horizon"):
            c.Trajectory(spec, 3, reals=[0.1, 0.2])

    def test_spec_must_be_a_system_spec(self):
        with pytest.raises(ValidationError, match="spec must be a system spec, got object"):
            c.Trajectory(object(), 3, symbols=np.array([0, -1, 7]))

    def test_horizon_zero_rejected(self):
        with pytest.raises(UsageError):
            c.sample_orbit(c.FullShift(2, (0.5, 0.5)), 0, seed=1)

    def test_tent_conjugacy_on_coding_track(self):
        # the depth-1 symbol at time n names the branch the step from x_n
        # took: 1 for a * (1 - x), 0 for a * x
        for a in (1.5, 1.99, 2.0):
            for seed in (1, 5, 9):
                t = c.sample_orbit(c.IntervalMap("tent", a, coding_depth=1), 3000, seed)
                x, branch = t.reals[:-1], t.symbols[:-1] == 1
                want = a * np.where(branch, 1.0 - x, x)
                assert t.reals[1:].tobytes() == want.tobytes(), (a, seed)

    def test_coding_track_needs_depth_minus_one_reals(self):
        spec = c.IntervalMap("tent", 2.0, coding_depth=7)
        assert c.systems.coding_symbols(spec, np.full(6, 0.7)).size == 0
        for n in (1, 5):
            with pytest.raises(ValidationError):
                c.systems.coding_symbols(spec, np.full(n, 0.7))

    def test_coding_depth_packs_windows(self):
        spec = c.IntervalMap("tent", 2.0, coding_depth=2)
        t = c.sample_orbit(spec, 50, seed=9)
        base = c.sample_orbit(c.IntervalMap("tent", 2.0, 1), 51, seed=9)
        expect = base.symbols[:50] * 2 + base.symbols[1:51]
        assert np.array_equal(t.symbols, expect)
        assert t.symbols.max() < spec.arity


# x0 on and next to the coding cut 1/2, at the ends of [0, 1], or uniform
INTERVAL_X0 = st.one_of(
    st.sampled_from([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def interval_maps(draw):
    """A tent or logistic map, its parameter at the top of the range (tent
    a = 2 collapses to 0 within about 55 steps) or uniform in (0, top]."""
    kind = draw(st.sampled_from(["tent", "logistic"]))
    top = 2.0 if kind == "tent" else 4.0
    a = draw(st.one_of(st.just(top), st.floats(0.0, top, exclude_min=True)))
    return kind, a


class TestIntervalOrbitDifferential:
    """sample_orbit's reals and coding track against the list-based loop."""

    @staticmethod
    def _check(kind, a, x0, horizon, depth):
        t = c.sample_orbit(c.IntervalMap(kind, a, depth), horizon, seed=0, x0=x0)
        reals, symbols = interval_orbit_direct(kind, a, x0, horizon, depth)
        assert t.reals.tobytes() == reals.tobytes()
        assert t.symbols.dtype == c.symbol_dtype(2**depth)
        assert np.array_equal(t.symbols, symbols)
        return t

    @given(interval_maps(), INTERVAL_X0, st.integers(1, 300), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    @example(("logistic", 3.91), 0.3, 10, 1)  # a * (x * (1 - x)) rounds apart here
    @example(("tent", 1.99), 0.3, 40, 3)  # reversed packing gives other symbols
    def test_orbit_and_coding_track(self, system, x0, horizon, depth):
        self._check(*system, x0, horizon, depth)

    @pytest.mark.parametrize("kind,a", [("tent", 1.99), ("logistic", 4.0)])
    def test_depth_63_uses_the_top_symbol_bit(self, kind, a):
        t = self._check(kind, a, 0.7, 5, 63)
        assert t.symbols[0] >= 2**62  # x0 >= 1/2 sets bit 62


def tie_sample(arity, horizon, seed, k, j, l):
    """A full shift whose boundaries cdf[j:l] all equal the uniform the
    sampler draws at time k: weights u_k on j and 1 - u_k on l, zero
    elsewhere, so the cdf is exact and sums to 1 exactly. Only the
    boundaries <= u count, so time k gets symbol l."""
    u = np.random.default_rng(np.random.SeedSequence(seed)).random(horizon)[k]
    weights = np.zeros(arity)
    weights[j], weights[l] = u, 1.0 - u
    return c.FullShift(arity, tuple(weights)), horizon, seed


@st.composite
def full_shift_samples(draw):
    """(spec, horizon, seed): a full shift on 2..300 symbols (uint8 up to
    256, uint16 beyond) whose weights may be zero, on the last symbol among
    others, or whose cdf puts a boundary on a uniform the sampler draws."""
    arity = draw(st.integers(2, 300))
    horizon = draw(st.integers(1, 2000))
    seed = draw(st.integers(0, 2**32))
    if draw(st.booleans()):
        k = draw(st.integers(0, horizon - 1))
        j = draw(st.integers(0, arity - 2))
        return tie_sample(arity, horizon, seed, k, j, draw(st.integers(j + 1, arity - 1)))
    weights = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=arity, max_size=arity
    )))
    if draw(st.booleans()):
        weights[-1] = 0.0
    assume(weights.sum() > 0)
    return c.FullShift(arity, tuple(weights / weights.sum())), horizon, seed


class TestFullShiftDifferential:
    """sample_orbit's full-shift symbols against Generator.choice."""

    @given(full_shift_samples())
    @settings(max_examples=200, deadline=None)
    @example((c.FullShift(257, (0.0,) * 255 + (0.5, 0.5)), 500, 3))
    @example((c.FullShift(3, (0.5, 0.5, 0.0)), 500, 1))  # cdf[1] = 1.0 is a boundary
    @example(tie_sample(257, 500, 3, k=17, j=100, l=256))
    def test_symbols_match_choice(self, sample):
        spec, horizon, seed = sample
        t = c.sample_orbit(spec, horizon, seed)
        assert t.symbols.dtype == c.symbol_dtype(spec.arity)
        assert np.array_equal(t.symbols, full_shift_direct(spec, horizon, seed))


class TestSymbolDtype:
    """Every producer writes symbol_dtype(arity), the narrowest unsigned
    dtype holding arity - 1."""

    @pytest.mark.parametrize(
        "spec,dtype",
        [
            (c.FullShift(2, (0.5, 0.5)), np.uint8),
            (c.FullShift(257, (1 / 257,) * 257), np.uint16),
            (c.IntervalMap("tent", 1.99, 1), np.uint8),
            (c.IntervalMap("tent", 1.99, 8), np.uint8),
            (c.IntervalMap("logistic", 4.0, 9), np.uint16),
            (c.IntervalMap("tent", 1.99, 63), np.uint64),
            (c.OdometerSpec((2, 4, 8)), np.uint8),
            (c.ZeroEntropy(QSchedule((2, 2))), np.uint8),
        ],
        ids=["shift-2", "shift-257", "depth-1", "depth-8", "depth-9", "depth-63",
             "odometer", "zero-entropy"],
    )
    def test_sampled_tracks(self, spec, dtype):
        t = c.sample_orbit(spec, 100, seed=3)
        assert c.symbol_dtype(spec.arity) == dtype
        assert t.symbols.dtype == dtype
        cut = c.systems.truncate_trajectory(t, t.horizon - 1)
        assert cut.symbols.dtype == dtype

    @pytest.mark.parametrize("target", c.systems.WITNESS_TARGETS)
    def test_witness_pairs(self, target):
        pair = c.construct_witness_pair(target, 2000)
        assert pair.a.symbols.dtype == pair.b.symbols.dtype == np.uint8

    def test_wide_track_is_narrowed(self):
        wide = np.array([0, 256, 3, 299], dtype=np.int64)
        t = c.Trajectory(c.FullShift(300, (1 / 300,) * 300), 4, symbols=wide)
        assert t.symbols.dtype == np.uint16
        assert t.symbols.tolist() == wide.tolist()


class TestMakePair:
    def test_independent_reproducible(self):
        spec = c.FullShift(2, (0.5, 0.5))
        p1 = c.make_pair(spec, 4, (1, 2))
        p2 = c.make_pair(spec, 4, (1, 2))
        assert np.array_equal(p1.a.symbols, p2.a.symbols)
        assert np.array_equal(p1.b.symbols, p2.b.symbols)
        assert p1.horizon == 4

    def test_seed_collision_refused(self):
        with pytest.raises(UsageError, match="distinct seeds"):
            c.make_pair(c.FullShift(2, (0.5, 0.5)), 4, (3, 3))

    def test_zero_entropy_orbit_caps_horizon(self):
        from chaoslab.blocks import QSchedule

        spec = c.ZeroEntropy(QSchedule((2, 2)))
        t = c.sample_orbit(spec, 1000, seed=4)
        assert t.horizon == t.source.available_horizon <= 16


class TestWitnessSchedules:
    def test_dc1_boundary_densities(self):
        # exact schedule arithmetic: beyond the third run, each run's end
        # pushes its own set's ratio to at least 4/5
        runs = c.witness_runs("DC1", 7776)
        agree = boundary_ratios(runs, 7776, want_agree=True)
        disagree = boundary_ratios(runs, 7776, want_agree=False)
        for i, (n, ratio) in enumerate(agree, start=1):
            if i >= 3 and i % 2 == 1:
                assert ratio >= Fraction(4, 5)
        for i, (n, ratio) in enumerate(disagree, start=1):
            if i >= 3 and i % 2 == 0:
                assert ratio >= Fraction(4, 5)

    def test_dc1_example_growth_factor(self):
        runs = c.witness_runs("DC1", 7776)
        lengths = [l for l, _ in runs]
        for i in range(1, len(lengths)):
            assert lengths[i] == 5 * sum(lengths[:i])

    def test_doubling_schedule_densities(self):
        horizon = 4**10
        runs = c.witness_runs("DC3", horizon)
        agree = [r for n, r in boundary_ratios(runs, horizon) if n >= 1000]
        assert abs(float(max(agree)) - 2 / 3) < 0.01
        assert abs(float(min(agree)) - 1 / 3) < 0.01

    def test_ly_schedule_densities_tend_to_half(self):
        horizon = 100000
        runs = c.witness_runs("LY", horizon)
        both_unbounded = [l for l, agree in runs if agree], [
            l for l, agree in runs if not agree
        ]
        assert max(both_unbounded[0]) > 100 and max(both_unbounded[1]) > 100
        agree = [r for n, r in boundary_ratios(runs, horizon) if n >= horizon // 10]
        assert abs(float(max(agree)) - 0.5) < 0.05
        assert abs(float(min(agree)) - 0.5) < 0.05

    def test_short_horizon_refused(self):
        with pytest.raises(InsufficientHorizon):
            c.construct_witness_pair("DC1", 30)

    def test_witness_pair_tracks(self):
        pair = c.construct_witness_pair("DC3", 2000)
        runs = c.witness_runs("DC3", 2000)
        mask = runs_to_mask(runs, 2000)
        assert np.array_equal(pair.a.symbols, np.zeros(2000, dtype=np.int64))
        assert np.array_equal(pair.b.symbols == 0, mask)

    @pytest.mark.parametrize("target", c.systems.WITNESS_TARGETS)
    def test_witness_pair_matches_run_oracle(self, target):
        # horizons that end exactly on a run and horizons that cut one, from
        # the shortest schedule accepted (6 runs) to one of many runs
        ends = np.cumsum([length for length, _ in c.witness_runs(target, 2**16)])
        ends = ends[ends <= 2**16]
        for k in sorted({5, 6, max(5, ends.size // 2), ends.size - 1}):
            for horizon in (int(ends[k]), int(ends[k]) - 1, int(ends[k]) + 1):
                pair = c.construct_witness_pair(target, horizon)
                mask = runs_to_mask(c.witness_runs(target, horizon), horizon)
                assert pair.horizon == horizon
                assert np.array_equal(pair.a.symbols, np.zeros(horizon, np.uint8))
                assert np.array_equal(pair.b.symbols, (~mask).astype(np.uint8))
                assert np.array_equal(
                    pair.agreement, c.pack_times(pair.a.symbols == pair.b.symbols))


class TestDistanceSeries:
    def _pair(self, xs, ys):
        spec = c.FullShift(2, (0.5, 0.5))
        a = c.Trajectory(spec, len(xs), symbols=np.array(xs, dtype=np.int64))
        b = c.Trajectory(spec, len(ys), symbols=np.array(ys, dtype=np.int64))
        return c.OrbitPair(a, b)

    @staticmethod
    def _sets(d):
        """The mask of the series' set {d_n < t} at every grid point."""
        return [c.unpack_times(d.planes[r], d.horizon).tolist() for r in d.rows]

    def test_hamming_identical(self):
        d = c.distance_series(self._pair([0, 1, 0, 1], [0, 1, 0, 1]), "hamming-indicator")
        assert self._sets(d) == [[True] * 4] * 16

    def test_hamming_positionwise(self):
        d = c.distance_series(self._pair([0, 1, 0, 1], [0, 1, 1, 1]), "hamming-indicator")
        assert self._sets(d) == [[True, True, False, True]] * 16

    def test_cantor_first_disagreement(self):
        d = c.distance_series(self._pair([0, 0, 0, 0], [0, 0, 1, 0]), "cantor")
        # agreement run of length 2 from n=0: d = 0.25 lies below t exactly
        # at the grid points above 0.25, the last two
        assert [s[0] for s in self._sets(d)] == [False] * 14 + [True] * 2
        assert [t > 0.25 for t in c.THRESHOLD_GRID] == [False] * 14 + [True] * 2

    @pytest.mark.parametrize("xs, ys", [([0, 0, 0], [0, 0, 0]), ([0, 1, 0, 0], [0, 0, 0, 0])],
                             ids=["identical", "agreeing-tail"])
    def test_cantor_agreement_up_to_the_horizon_is_distance_zero(self, xs, ys):
        # a run that agrees up to the horizon is unbounded: d = 0 on the
        # agreeing tail, in every grid set and every cylinder depth; the
        # second pair's run of 1 from n = 0 gives d = 1/2, then d = 1
        pair = self._pair(xs, ys)
        d = [0.5, 1.0, 0.0, 0.0] if xs != ys else [0.0] * 3
        assert self._sets(c.distance_series(pair, "cantor")) == [
            [v < t for v in d] for t in c.THRESHOLD_GRID]
        for k in range(1, 18):
            plane = c.same_atom_series(pair, c.cylinder_scheme(17), k)
            assert c.unpack_times(plane, len(xs)).tolist() == [
                v < 2.0**-(k - 1) for v in d]

    def test_metric_unavailable(self):
        with pytest.raises(MetricUnavailable):
            c.distance_series(self._pair([0, 1], [1, 0]), "absolute")

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hamming_binary_and_symmetric(self, xs, data):
        ys = data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
        d_ab = c.distance_series(self._pair(xs, ys), "hamming-indicator")
        d_ba = c.distance_series(self._pair(ys, xs), "hamming-indicator")
        # one set at every grid point: the indicator takes only 0 and 1
        assert set(d_ab.rows) == {0} and len(d_ab.planes) == 1
        assert self._sets(d_ab) == self._sets(d_ba)
        assert self._sets(d_ab)[0] == [x == y for x, y in zip(xs, ys)]
