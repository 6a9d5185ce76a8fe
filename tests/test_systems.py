import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab.errors import (
    InsufficientHorizon,
    MetricUnavailable,
    UsageError,
    ValidationError,
)
from oracles import boundary_ratios


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
            c.Trajectory(spec, 6, None, symbols=np.array([-3, 1, 0, -1, -3, 1]))
        with pytest.raises(ValidationError):
            c.Trajectory(spec, 3, None, symbols=np.array([0, 2, 1]))
        ok = c.Trajectory(spec, 3, None, symbols=np.array([0, 1, 1]))
        assert ok.symbols.tolist() == [0, 1, 1]

    def test_horizon_zero_rejected(self):
        with pytest.raises(UsageError):
            c.sample_orbit(c.FullShift(2, (0.5, 0.5)), 0, seed=1)

    def test_tent_conjugacy_on_coding_track(self):
        # regenerated coding bits match emitted ones away from the boundary
        spec = c.IntervalMap("tent", 2.0, coding_depth=1)
        t = c.sample_orbit(spec, 3000, seed=5)
        regen = c.systems.coding_symbols(spec, t.reals)
        away = np.abs(t.reals[: len(regen)] - 0.5) > 1e-9
        assert np.array_equal(regen[away], t.symbols[: len(regen)][away])

    def test_coding_depth_packs_windows(self):
        spec = c.IntervalMap("tent", 2.0, coding_depth=2)
        t = c.sample_orbit(spec, 50, seed=9)
        base = c.sample_orbit(c.IntervalMap("tent", 2.0, 1), 51, seed=9)
        expect = base.symbols[:50] * 2 + base.symbols[1:51]
        assert np.array_equal(t.symbols, expect)
        assert t.symbols.max() < spec.arity


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
        mask = c.systems.runs_to_mask(runs, 2000)
        assert np.array_equal(pair.a.symbols, np.zeros(2000, dtype=np.int64))
        assert np.array_equal(pair.b.symbols == 0, mask)


class TestDistanceSeries:
    def _pair(self, xs, ys):
        spec = c.FullShift(2, (0.5, 0.5))
        a = c.Trajectory(spec, len(xs), None, symbols=np.array(xs, dtype=np.int64))
        b = c.Trajectory(spec, len(ys), None, symbols=np.array(ys, dtype=np.int64))
        return c.OrbitPair(a, b)

    def test_hamming_identical(self):
        d = c.distance_series(self._pair([0, 1, 0, 1], [0, 1, 0, 1]), "hamming-indicator")
        assert np.array_equal(d.values, np.zeros(4))

    def test_hamming_positionwise(self):
        d = c.distance_series(self._pair([0, 1, 0, 1], [0, 1, 1, 1]), "hamming-indicator")
        assert d.values.tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_cantor_first_disagreement(self):
        d = c.distance_series(self._pair([0, 0, 0, 0], [0, 0, 1, 0]), "cantor")
        assert d.values[0] == 0.25  # agreement run of length 2 from n=0

    def test_cantor_cap_at_remaining_horizon(self):
        d = c.distance_series(self._pair([0, 0, 0], [0, 0, 0]), "cantor")
        assert d.values.tolist() == [2.0**-3, 2.0**-2, 2.0**-1]

    def test_metric_unavailable(self):
        with pytest.raises(MetricUnavailable):
            c.distance_series(self._pair([0, 1], [1, 0]), "absolute")

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hamming_binary_and_symmetric(self, xs, data):
        ys = data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
        d_ab = c.distance_series(self._pair(xs, ys), "hamming-indicator")
        d_ba = c.distance_series(self._pair(ys, xs), "hamming-indicator")
        assert set(np.unique(d_ab.values)) <= {0.0, 1.0}
        assert np.array_equal(d_ab.values, d_ba.values)
