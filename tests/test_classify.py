import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import blocks as bl
from chaoslab import density as de
from chaoslab.cli import _system_spec, build_parser, run
from chaoslab.errors import PolicyError, SchemeError, ValidationError
from oracles import (
    aligned_window_label,
    aligned_window_scheme,
    cylinder_label,
    metric_verdict_direct,
    partition_verdict_direct,
    per_set_density,
    phi_profile_float_path,
    runs_to_mask,
    same_label_mask,
    scan_clique_float_path,
)

WITNESS_THRESHOLDS = c.Thresholds(tau_one=0.25, tau_zero=0.25)


def classify_series(series, th=WITNESS_THRESHOLDS, burn_in=None):
    """Metric verdict of a DistanceSeries, or of N float distances."""
    if not isinstance(series, c.DistanceSeries):
        series = c.DistanceSeries.from_values(np.asarray(series, dtype=float))
    return c.classify_metric_pair(c.phi_profile(series, burn_in), th)


class TestMetricClassification:
    def test_all_zero_series_no_flags(self):
        v = classify_series(np.zeros(5000))
        assert not any(v.flags.values())

    def test_identical_trajectories_no_flags(self):
        pair = c.make_pair(c.FullShift(2, (1.0, 0.0)), 2000, (1, 2))
        v = classify_series(c.distance_series(pair))
        assert not any(v.flags.values())

    def test_dc1_witness_all_flags(self):
        pair = c.construct_witness_pair("DC1", 7776)
        v = classify_series(c.distance_series(pair))
        assert v.flags == {
            "li_yorke": True,
            "dc1": True,
            "dc1half": True,
            "dc2": True,
            "dc3": True,
        }

    def test_dc2_witness(self):
        pair = c.construct_witness_pair("DC2", 10000)
        v = classify_series(c.distance_series(pair))
        assert v.dc2 and v.dc3 and v.li_yorke
        assert not v.dc1half and not v.dc1

    def test_dc3_witness(self):
        pair = c.construct_witness_pair("DC3", 4**10)
        v = classify_series(c.distance_series(pair))
        assert v.dc3 and not v.dc2

    def test_ly_witness_only_li_yorke(self):
        pair = c.construct_witness_pair("LY", 100000)
        v = classify_series(c.distance_series(pair))
        assert v.li_yorke
        assert not (v.dc1 or v.dc1half or v.dc2 or v.dc3)

    def test_constant_positive_distance_not_li_yorke(self):
        # distance never approaches zero: bounded apart is not scrambled
        v = classify_series(np.full(5000, 0.5))
        assert not v.li_yorke and not any(v.flags.values())

    def test_independent_bernoulli_no_dc_flags(self):
        pair = c.make_pair(c.FullShift(2, (0.5, 0.5)), 100000, (1, 2))
        v = classify_series(c.distance_series(pair), burn_in=10000)
        assert not (v.dc1 or v.dc1half or v.dc2 or v.dc3)
        assert v.li_yorke  # infinitely many agreements and separations

    def test_symmetry_under_swap(self):
        pair = c.make_pair(c.FullShift(2, (0.5, 0.5)), 3000, (5, 6))
        swapped = c.OrbitPair(pair.b, pair.a)
        v1 = classify_series(c.distance_series(pair))
        v2 = classify_series(c.distance_series(swapped))
        assert v1.flags == v2.flags

    def test_dc1half_witness_separation_upper(self):
        pair = c.construct_witness_pair("DC1", 7776)
        v = classify_series(c.distance_series(pair))
        # witness runs grow by a factor of 5: separation upper density ~5/6
        assert abs(v.separation_upper - 0.857) < 0.01
        assert v.separation_threshold == 1.0

    @given(
        st.one_of(
            st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=200, max_size=400),
            st.lists(st.integers(0, 1), min_size=200, max_size=400),
        ),
        st.floats(0.05, 0.4),
        st.floats(0.05, 0.4),
    )
    @settings(max_examples=120, deadline=None)
    def test_chain_on_random_inputs(self, values, tau_one, tau_zero):
        th = c.Thresholds(tau_one=tau_one, tau_zero=tau_zero)
        v = classify_series(np.array(values, dtype=float), th=th, burn_in=20)
        assert (not v.dc1) or v.dc1half
        assert (not v.dc1half) or v.dc2
        assert (not v.dc2) or v.dc3
        assert (not v.dc2) or v.li_yorke

    def test_gap_tie_reads_as_the_decimal(self):
        # the exact gap 3/10 - 1/5 is 1/10; the float 0.3 - 0.2 lies below it
        est = c.DensityEstimate(Fraction(3, 10), Fraction(1, 5), (10,), 2)
        prof = c.PhiProfile((est,) * c.THRESHOLD_GRID.size, 100)
        assert c.classify_metric_pair(prof, c.Thresholds(gap=0.1)).dc3

    def test_separation_tie_reads_as_the_decimal(self):
        # the separation set's upper density is exactly 1/10 = eta_min at
        # every threshold; the float 1.0 - 0.9 lies below it
        est = c.DensityEstimate(Fraction(9, 10), Fraction(9, 10), (10,), 9)
        prof = c.PhiProfile((est,) * c.THRESHOLD_GRID.size, 100)
        v = c.classify_metric_pair(prof, c.Thresholds(eta_min=0.1))
        assert v.separation_threshold == c.THRESHOLD_GRID[-1]

    def test_cantor_metric_profile_grades_with_threshold(self):
        # under the cantor metric the witness profile actually varies along
        # the grid: short agreement runs clear low thresholds only
        pair = c.construct_witness_pair("DC3", 4**10)
        prof = c.phi_profile(c.distance_series(pair, "cantor"))
        assert prof.phi_star[0] < prof.phi_star[-1]

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            c.Thresholds(tau_one=0.6, tau_zero=0.5)
        with pytest.raises(ValidationError):
            c.Thresholds(gap=0.0)
        with pytest.raises(ValidationError):
            c.Thresholds(eta_min=1.0)

    def test_thresholds_hold_the_four_values_the_reads_compare(self):
        # the burn-in is an argument of each read, never a threshold
        names = [f.name for f in dataclasses.fields(c.Thresholds)]
        assert names == ["tau_one", "tau_zero", "eta_min", "gap"]
        with pytest.raises(TypeError):
            c.Thresholds(burn_in=500)

    @pytest.mark.parametrize("burn_in", [0, -1, 2.5, float("nan"), float("inf")])
    def test_both_reads_refuse_a_burn_in_below_one_or_not_an_integer(self, burn_in):
        # the metric read takes its burn-in through phi_profile, the partition
        # read as an argument; the partition read refuses it before any plane
        series = c.DistanceSeries.from_values(np.zeros(400))
        with pytest.raises(PolicyError, match="burn-in must be"):
            c.classify_metric_pair(c.phi_profile(series, burn_in))
        calls = []

        def counted(pair):
            calls.append(pair)
            return c.cylinder_scheme(2).same_atom_planes(pair)

        pair = shift_pair([0] * 400, [1] * 400)
        scheme = c.PartitionScheme(2, counted, "counted")
        with pytest.raises(PolicyError, match="burn-in must be"):
            c.classify_partition_pair(pair, scheme, burn_in=burn_in)
        assert calls == []
        for ok in (None, 1, np.int64(7), 3.0):
            assert c.classify_partition_pair(pair, scheme, burn_in=ok).k0 == 1

    def test_tau_sum_is_read_on_the_decimals(self):
        # the floats sum to 1.0, the decimals to 0.99999999999999997
        th = c.Thresholds(tau_one=0.763774618976614, tau_zero=0.23622538102338597)
        assert th.exact_bounds[1] < th.exact_bounds[0]
        # these decimals sum to exactly 1
        for tau_one, tau_zero in ((0.95, 0.05), (0.5833333333333333, 0.4166666666666667)):
            with pytest.raises(ValidationError, match="tau_one \\+ tau_zero"):
                c.Thresholds(tau_one=tau_one, tau_zero=tau_zero)

    def test_scheme_mismatch_rejected(self):
        # both schedules share N_1 = 4, so only the schedule check can refuse;
        # the drawn offset gets 2 N_3 steps, a shorter pair than 3 blocks gave
        pair = bl.fiber_pair(c.QSchedule((2, 2, 2)), (1, 2), horizon=2 * 64)
        scheme = c.central_block_scheme(c.QSchedule((2, 3, 2)))
        with pytest.raises(SchemeError, match="different schedule"):
            scheme.same_atom_planes(pair)
        with pytest.raises(SchemeError, match="different schedule"):
            c.classify_partition_pair(pair, scheme)

    def test_verdict_chain_enforced_structurally(self):
        with pytest.raises(ValidationError):
            c.PairVerdict(
                li_yorke=False,
                dc1=True,
                dc1half=True,
                dc2=True,
                dc3=True,
                separation_threshold=None,
                separation_upper=1.0,
            )

    @pytest.mark.parametrize(
        "ly, dc1, dc1half, dc2, dc3, message",
        [
            (True, True, False, True, True, "dc1 requires dc1half"),
            (True, False, True, False, True, "dc1half requires dc2"),
            (True, False, False, True, False, "dc2 requires dc3"),
            (False, False, False, True, True, "dc2 requires li_yorke"),
        ],
    )
    def test_each_broken_implication_is_rejected(self, ly, dc1, dc1half, dc2, dc3, message):
        # every other implication holds, so the named one alone must trip
        fields = dict(separation_threshold=None, separation_upper=1.0)
        with pytest.raises(ValidationError, match=message):
            c.PairVerdict(li_yorke=ly, dc1=dc1, dc1half=dc1half, dc2=dc2, dc3=dc3, **fields)
        c.PairVerdict(li_yorke=True, dc1=dc1, dc1half=True, dc2=True, dc3=True, **fields)


def shift_pair(xs, ys):
    spec = c.FullShift(2, (0.5, 0.5))
    a = c.Trajectory(spec, len(xs), symbols=np.array(xs, dtype=np.int64))
    b = c.Trajectory(spec, len(ys), symbols=np.array(ys, dtype=np.int64))
    return c.OrbitPair(a, b)


def times(plane, horizon):
    """The 1-based times a packed plane over times 1..horizon holds at."""
    return (np.flatnonzero(c.unpack_times(plane, horizon)) + 1).tolist()


class TestSameAtomSeries:
    def test_identical_trajectories_full(self):
        pair = shift_pair([0, 1, 0, 1], [0, 1, 0, 1])
        planes = c.same_atom_series(pair, c.cylinder_scheme(3))
        assert planes.dtype == np.uint64 and planes.shape == (3, 1)
        assert times(planes[0], pair.horizon) == [1, 2, 3, 4]

    def test_cylinder_positionwise_compare(self):
        # tracks 0101 vs 0001 agree at positions 1, 3, 4 (1-indexed)
        pair = shift_pair([0, 1, 0, 1], [0, 0, 0, 1])
        planes = c.same_atom_series(pair, c.cylinder_scheme(2))
        assert times(planes[0], pair.horizon) == [1, 3, 4]

    def test_cylinder_depth_two_windows(self):
        pair = shift_pair([0, 1, 0, 1], [0, 0, 0, 1])
        planes = c.same_atom_series(pair, c.cylinder_scheme(2))
        # windows [n, n+2): equal at n=3,4 (1-indexed times 3 and 4)
        assert times(planes[1], pair.horizon) == [3, 4]

    def test_refinement_monotone(self):
        rng = np.random.default_rng(0)
        pair = shift_pair(rng.integers(0, 2, 300), rng.integers(0, 2, 300))
        planes = c.same_atom_series(pair, c.cylinder_scheme(4))
        sets = [set(times(plane, 300)) for plane in planes]
        assert sets[3] <= sets[2] <= sets[1] <= sets[0]

    @pytest.mark.parametrize("given, depth", [(2, 3), (3, 2)])
    def test_stack_with_the_wrong_row_count_is_refused(self, given, depth):
        # a stack of `given` cylinder depths under a scheme that claims `depth`
        pair = shift_pair([0, 1, 0, 1], [0, 0, 0, 1])
        scheme = c.PartitionScheme(depth, c.cylinder_scheme(given).same_atom_planes, "short")
        message = f"scheme 'short' of depth {depth} gave {given} planes"
        with pytest.raises(SchemeError, match=message):
            c.same_atom_series(pair, scheme)
        with pytest.raises(SchemeError, match=message):
            c.classify_partition_pair(pair, scheme, burn_in=1)

    @pytest.mark.parametrize("horizon", [1, 63, 70, 130])
    def test_stack_with_a_bit_past_the_horizon_is_refused(self, horizon):
        # nested all-ones planes, the deepest with the first bit past N set
        pair = shift_pair([0] * horizon, [0] * horizon)
        planes = np.stack([c.pack_times(np.ones(horizon, dtype=bool))] * 2)
        planes[1, -1] |= np.uint64(1) << np.uint64(horizon % 64)
        scheme = c.PartitionScheme(2, lambda pair: planes, "overrun")
        with pytest.raises(ValidationError, match=f"no bit set past time {horizon}"):
            c.same_atom_series(pair, scheme)
        planes[1, -1] &= ~(np.uint64(1) << np.uint64(horizon % 64))
        assert c.same_atom_series(pair, scheme).shape == (2, -(-horizon // 64))

    @pytest.mark.parametrize("depth", [3, 64, 65, 129, 131])
    def test_refinement_checked_across_plane_blocks(self, depth):
        # rows are checked PLANE_BLOCK at a time: the first depth outside the
        # one before it is named at a block's last row (64), at its first row
        # (65, 129: read against the last row of the block before) and in the
        # ragged last block (131); a second breach past it is not named
        assert de.PLANE_BLOCK == 64
        horizon, rows = 200, 140
        masks = [np.arange(horizon) >= k for k in range(rows)]  # nested
        for k in (depth, depth + 70):
            if k <= rows:
                masks[k - 1][0] = True  # time 1: not in depth k - 1's set
        planes = np.stack([c.pack_times(m) for m in masks])
        scheme = c.PartitionScheme(rows, lambda pair: planes, "breach")
        message = f"its same-atom set at depth {depth} is not inside the one at depth {depth - 1}"
        with pytest.raises(SchemeError, match=message):
            c.same_atom_series(shift_pair([0] * horizon, [0] * horizon), scheme)

    def test_stack_of_another_dtype_is_refused(self):
        pair = shift_pair([0] * 10, [0] * 10)
        scheme = c.PartitionScheme(2, lambda pair: np.ones((2, 1), dtype=np.int64), "ints")
        with pytest.raises(ValidationError, match="uint64 words"):
            c.same_atom_series(pair, scheme)

    def test_cylinder_fast_mask_matches_labels(self):
        rng = np.random.default_rng(4)
        pair = shift_pair(rng.integers(0, 2, 150), rng.integers(0, 2, 150))
        planes = c.cylinder_scheme(3).same_atom_planes(pair)
        for k in (1, 2, 3):
            fast = c.unpack_times(planes[k - 1], pair.horizon)
            assert np.array_equal(fast, same_label_mask(cylinder_label, pair, k))

    @pytest.mark.parametrize("horizon", [1, 2, 63, 64, 65, 128, 129])
    def test_cylinder_planes_match_labels_at_the_word_edges(self, horizon):
        # the last k-1 words are cut at the horizon: a disagreement at each
        # of the last 5 times, or none, against the label oracle, at depths
        # up to and across a word
        rng = np.random.default_rng(horizon)
        xs = rng.integers(0, 2, horizon)
        scheme = c.cylinder_scheme(70)
        for back in range(min(6, horizon + 1)):
            ys = xs.copy()
            if back:
                ys[-back] ^= 1
            pair = shift_pair(xs, ys)
            planes = c.same_atom_series(pair, scheme)
            for k in (1, 2, 3, 5, 64, 65, 70):
                by_label = same_label_mask(cylinder_label, pair, k)
                assert np.array_equal(c.unpack_times(planes[k - 1], horizon), by_label), (back, k)

    def test_cylinder_needs_symbols(self):
        spec = c.IntervalMap("tent", 1.99)
        a = c.Trajectory(spec, 3, reals=np.full(3, 0.25))
        b = c.Trajectory(spec, 3, reals=np.full(3, 0.75))
        with pytest.raises(SchemeError, match="symbol track"):
            c.same_atom_series(c.OrbitPair(a, b), c.cylinder_scheme(2))


def same_atom_estimates(pair, scheme, burn_in=None):
    """The kernel's estimates of the scheme's same-atom sets of `pair`, one
    per depth, over the checkpoint grid from `burn_in`."""
    cps = c.checkpoint_grid(pair.horizon, burn_in)
    return de.nested_density_estimates(c.same_atom_series(pair, scheme), pair.horizon, cps)


def estimate_key(e):
    return (e.upper, e.lower, e.checkpoints, e.count_at_horizon)


def assert_partition_estimates_match(pair, scheme, burn_in):
    """One kernel pass over all depths against one per-set density per
    depth, and against the partition verdict's k0 and separation_upper,
    read over the same grid."""
    planes = c.same_atom_series(pair, scheme)
    cps = c.checkpoint_grid(pair.horizon, burn_in)
    got = de.nested_density_estimates(planes, pair.horizon, cps)
    for est, plane in zip(got, planes):
        s = c.unpack_times(plane, pair.horizon)
        assert estimate_key(est) == estimate_key(per_set_density(s, cps))
        (alone,) = de.nested_density_estimates(plane[None], pair.horizon, cps)
        assert estimate_key(est) == estimate_key(alone)
    assert len(got) == scheme.depth
    if scheme.depth >= 2:
        v = c.classify_partition_pair(pair, scheme, burn_in=burn_in)
        eta_min = Fraction(repr(c.Thresholds().eta_min))
        k0 = next((k for k, e in enumerate(got, start=1) if 1 - e.lower >= eta_min), None)
        assert (v.k0, v.separation_upper) == (k0, float(1 - got[k0 - 1].lower) if k0 else 0.0)


@st.composite
def close_symbol_pairs(draw, min_size=1):
    n = draw(st.integers(min_size, 300))
    xs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    flips = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 8)))
    ys = [x ^ (i in flips) for i, x in enumerate(xs)]
    return shift_pair(xs, ys)


class TestPartitionKernelDifferential:
    @given(close_symbol_pairs(), st.integers(1, 5), st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_cylinder_scheme(self, pair, depth, burn):
        assert_partition_estimates_match(pair, c.cylinder_scheme(depth), min(burn, pair.horizon))

    def test_cylinder_scheme_deeper_than_horizon(self):
        # depth 4 on a 2-step pair: every word is cut at the horizon
        pair = shift_pair([0, 1], [0, 0])
        scheme = c.cylinder_scheme(4)
        planes = c.same_atom_series(pair, scheme)
        for k in range(1, 5):
            by_label = same_label_mask(cylinder_label, pair, k)
            assert times(planes[k - 1], pair.horizon) == [
                n + 1 for n, same in enumerate(by_label) if same
            ]
        assert_partition_estimates_match(pair, scheme, 1)

    @given(close_symbol_pairs(min_size=12), st.sampled_from([(1, 2, 4), (2, 6), (3, 3, 12)]))
    @settings(max_examples=60, deadline=None)
    def test_aligned_window_scheme(self, pair, lengths):
        scheme = aligned_window_scheme(lengths)
        assert_partition_estimates_match(pair, scheme, 1)
        planes = scheme.same_atom_planes(pair)
        for k in range(1, scheme.depth + 1):
            by_label = same_label_mask(aligned_window_label(lengths), pair, k)
            fast = c.unpack_times(planes[k - 1], pair.horizon)
            assert np.array_equal(fast, by_label)

    @pytest.mark.parametrize("seeds,offset", [((1, 2), 0), ((3, 4), 5), ((5, 6), None)])
    def test_central_block_scheme(self, seeds, offset):
        q = c.QSchedule((2, 3, 2))
        # 40 blocks from a given offset; a drawn offset gets 39 N_3 steps, a
        # shorter pair than 40 blocks gave
        horizon = 39 * q.n(3) if offset is None else 40 * q.n(3) - offset
        pair = bl.fiber_pair(q, seeds, offset=offset, horizon=horizon)
        for burn in (1, 7, None):
            assert_partition_estimates_match(pair, bl.central_block_scheme(q), burn)

    def test_pullback_family_central_block(self):
        q, trajectories = pulled_back_dc2_family(2)
        pair = c.OrbitPair(trajectories[0], trajectories[1])
        assert_partition_estimates_match(pair, c.central_block_scheme(q), None)

    def test_non_nested_scheme_rejected(self):
        # depth 2 holds at a time where depth 1 does not: not a refinement
        def same_atom_planes(pair):
            return np.stack([c.pack_times(np.arange(pair.horizon) != k) for k in (1, 2)])

        scheme = c.PartitionScheme(depth=2, same_atom_planes=same_atom_planes, name="skew")
        pair = shift_pair([0] * 20, [0] * 20)
        message = "'skew' does not refine: its same-atom set at depth 2 is not inside"
        with pytest.raises(SchemeError, match=message):
            c.same_atom_series(pair, scheme)
        with pytest.raises(SchemeError, match=message):
            c.classify_partition_pair(pair, scheme, burn_in=1)


@st.composite
def cantor_cylinder_cases(draw):
    """A full-shift pair (p = 0.5 or 0.9) or a tent a=1.99 pair at N near
    3000, or a witness pair at 2^14; a scheme depth and a burn-in."""
    source = draw(st.sampled_from(["shift-0.5", "shift-0.9", "tent", "witness"]))
    if source == "witness":
        pair = c.construct_witness_pair(draw(st.sampled_from(c.systems.WITNESS_TARGETS)), 2**14)
    else:
        spec = (c.IntervalMap("tent", 1.99) if source == "tent"
                else c.FullShift(2, (float(source[6:]), 1 - float(source[6:]))))
        horizon = draw(st.integers(2900, 3100))
        seed = draw(st.integers(1, 10**6))
        pair = c.make_pair(spec, horizon, (seed, seed + 1))
    burn = draw(st.none() | st.integers(1, pair.horizon))
    return pair, draw(st.integers(1, 20)), burn


class TestCantorCylinderDifferential:
    """The Cantor read and the cylinder read see one set per depth: depth k
    is grid point 16 - k for k <= 15, and depth 17 is t_0 = 2^-16."""

    @given(cantor_cylinder_cases())
    @settings(max_examples=60, deadline=None)
    def test_same_estimates_per_depth(self, case):
        pair, depth, burn = case
        planes = c.same_atom_series(pair, c.cylinder_scheme(depth))
        cps = c.checkpoint_grid(pair.horizon, burn)
        by_depth = de.nested_density_estimates(planes, pair.horizon, cps)
        by_grid = c.phi_profile(c.distance_series(pair, "cantor"), burn).estimates
        reads = [(k, 16 - k) for k in range(1, min(depth, 15) + 1)]
        reads += [(17, 0)] if depth >= 17 else []
        for k, j in reads:
            assert estimate_key(by_depth[k - 1]) == estimate_key(by_grid[j]), (k, j)


class TestPartitionClassification:
    def test_identical_not_scrambled(self):
        xs = np.tile([0, 1], 2000)
        pair = shift_pair(xs, xs)
        v = c.classify_partition_pair(pair, c.cylinder_scheme(3), burn_in=100)
        assert not v.pk_scrambled and not v.pk_plus

    def test_pk_minus_constant_false(self):
        xs = np.tile([0, 1], 2000)
        pair = shift_pair(xs, xs)
        v = c.classify_partition_pair(pair, c.cylinder_scheme(3), burn_in=100)
        assert not v.pk_minus
        ests = same_atom_estimates(pair, c.cylinder_scheme(3), 100)
        assert all(e.upper == e.lower for e in ests)

    def test_pk_minus_doubling_witness(self):
        horizon = 4**10
        pair = c.construct_witness_pair("DC3", horizon)
        v = c.classify_partition_pair(pair, c.cylinder_scheme(2))
        assert v.pk_minus
        first = same_atom_estimates(pair, c.cylinder_scheme(2))[0]
        assert abs(float(first.upper - first.lower) - 1 / 3) < 0.02

    def test_pk_minus_bernoulli_false(self):
        pair = c.make_pair(c.FullShift(2, (0.5, 0.5)), 100000, (1, 2))
        v = c.classify_partition_pair(pair, c.cylinder_scheme(2), burn_in=10000)
        assert not v.pk_minus

    def test_plus_implies_scrambled_structurally(self):
        with pytest.raises(ValidationError):
            c.PartitionVerdict(
                pk_scrambled=False, pk_plus=True, pk_minus=False, k0=None, separation_upper=0.0
            )

    def test_burn_in_past_the_horizon_is_refused_before_any_plane(self):
        calls = []

        def counted(pair):
            calls.append(pair)
            return c.cylinder_scheme(2).same_atom_planes(pair)

        pair = shift_pair([0] * 50, [0] * 50)
        scheme = c.PartitionScheme(2, counted, "counted")
        with pytest.raises(PolicyError, match="horizon 50 below burn-in 100"):
            c.classify_partition_pair(pair, scheme, c.Thresholds())
        assert calls == []

    def test_pk_plus_on_heavy_oscillation(self):
        # runs growing by factor 40 push both the same-atom and the
        # different-atom upper densities to 40/41 at their own run ends:
        # above 1 - tau_one and 1 - tau_zero, both 0.95, at depth 1
        length, agree, runs, total = 1, True, [], 0
        while total < 3_000_000:
            runs.append((length, agree))
            total += length
            length, agree = 40 * total, not agree
        mask = runs_to_mask(runs, total)
        xs = np.zeros(total, dtype=np.int64)
        ys = (~mask).astype(np.int64)
        spec = c.FullShift(2, (0.5, 0.5))
        pair = c.OrbitPair(
            c.Trajectory(spec, total, symbols=xs),
            c.Trajectory(spec, total, symbols=ys),
        )
        v = c.classify_partition_pair(pair, c.cylinder_scheme(2), c.Thresholds())
        assert v.pk_scrambled and v.pk_plus
        assert v.k0 == 1

    def test_pk_plus_false_when_separation_shallow(self):
        # the pullback witness separates on only ~a fifth of the time, far
        # below 1 - tau_zero
        q, trajectories = pulled_back_dc2_family(2)
        pair = c.OrbitPair(trajectories[0], trajectories[1])
        v = c.classify_partition_pair(pair, c.central_block_scheme(q), c.Thresholds())
        assert v.pk_scrambled and not v.pk_plus

    def test_threshold_tie_reads_as_the_decimal(self):
        # the same-atom upper density is exactly 3/10 at every depth, and
        # 1 - tau_one is 3/10 as decimals (the float 1 - 0.7 lies above it)
        mask = np.tile([False] * 7 + [True] * 3, 1000)
        scheme = c.PartitionScheme(2, lambda pair: np.stack([c.pack_times(mask)] * 2), "period-10")
        pair = shift_pair(np.zeros(mask.size), np.zeros(mask.size))
        th = c.Thresholds(tau_one=0.7, tau_zero=0.2)
        assert per_set_density(mask, c.checkpoint_grid(mask.size, 1000)).upper == Fraction(3, 10)
        v = c.classify_partition_pair(pair, scheme, th, burn_in=1000)
        assert v.pk_scrambled and v.k0 == 1 and not v.pk_plus

    @pytest.mark.parametrize("witness, pk, pk_plus", [
        ("LY", False, False),
        ("DC1", True, True),
        ("DC1half", True, True),
        ("DC2", True, False),
        ("DC3", False, False),
    ])
    def test_cylinder_reads_of_the_witnesses(self, witness, pk, pk_plus):
        # runs growing by a factor of 5 cap the different-atom upper density
        # near 5/6, above 1 - 0.25 for DC1 and DC1half; DC2 separates on
        # about a quarter of the time; the same-atom upper density of LY
        # (about 1/2) and of DC3 (about 2/3) stays below 1 - 0.25
        pair = c.construct_witness_pair(witness, 2**16)
        v = c.classify_partition_pair(pair, c.cylinder_scheme(3), WITNESS_THRESHOLDS)
        assert (v.pk_scrambled, v.pk_plus) == (pk, pk_plus)


def draw_tau_zero(draw, candidates, tau_one):
    """A tau_zero from `candidates`, or half the room left, that Thresholds
    accepts beside `tau_one`: its decimal lies below 1 minus tau_one's. A
    float guard such as v < 1 - tau_one admits 0.05 beside 0.95, whose
    decimals sum to exactly 1."""
    room = 1 - Fraction(repr(tau_one))
    fits = [v for v in candidates if 0 < v and Fraction(repr(v)) < room]
    return draw(st.sampled_from(fits or [float(room / 2)]))


@st.composite
def nested_mask_cases(draw):
    """Nested same-atom masks over a short horizon, with thresholds taken
    from the masks' own densities so that reads land on ties."""
    n = draw(st.integers(1, 120))
    depth = draw(st.integers(2, 4))
    levels = np.array(draw(st.lists(st.integers(0, depth), min_size=n, max_size=n)))
    masks = [levels >= k for k in range(1, depth + 1)]
    burn_in = draw(st.integers(1, n))
    cps = c.checkpoint_grid(n, burn_in)
    same = [per_set_density(m, cps) for m in masks]
    diff_upper = [float(per_set_density(~m, cps).upper) for m in masks]

    def pick(values):
        return draw(st.sampled_from([v for v in values if 0 < v < 1] or [0.5]))

    tau_one = pick([1 - float(e.upper) for e in same] + [0.05])
    th = c.Thresholds(
        tau_one=tau_one,
        tau_zero=draw_tau_zero(draw, [1 - v for v in diff_upper] + [0.05], tau_one),
        eta_min=pick(diff_upper + [0.05]),
        gap=pick([float(e.upper - e.lower) for e in same] + [0.1]),
    )
    return masks, th, burn_in


class TestPartitionReadDifferential:
    @given(nested_mask_cases())
    @settings(max_examples=200, deadline=None)
    def test_reads_match_the_direct_rules(self, case):
        masks, th, burn_in = case
        planes = np.stack([c.pack_times(m) for m in masks])
        scheme = c.PartitionScheme(len(masks), lambda pair: planes, "drawn")
        n = masks[0].size
        v = c.classify_partition_pair(shift_pair(np.zeros(n), np.zeros(n)), scheme, th, burn_in)
        want = partition_verdict_direct(masks, th, burn_in)
        assert (v.pk_scrambled, v.pk_plus, v.pk_minus) == want
        assert v.pk_scrambled or not v.pk_plus


# distances that tie with a threshold point, or lie below every one (0)
PROFILE_LEVELS = [0.0, *c.THRESHOLD_GRID.tolist()]


@st.composite
def metric_profile_cases(draw):
    """Phi profiles of short distance series drawn from a few levels (some
    threshold points, 0 and 1) or from floats, with thresholds taken from
    the profile's own densities so that reads land on ties."""
    n = draw(st.integers(1, 120))
    levels = draw(st.lists(st.sampled_from(PROFILE_LEVELS), min_size=1, max_size=4))
    pool = st.sampled_from(levels) | st.floats(0, 1, allow_nan=False)
    values = np.array(draw(st.lists(pool, min_size=n, max_size=n)))
    prof = c.phi_profile(c.DistanceSeries.from_values(values), draw(st.integers(1, n)))
    uppers = [float(e.upper) for e in prof.estimates]
    lowers = [float(e.lower) for e in prof.estimates]

    def pick(values):
        return draw(st.sampled_from([v for v in values if 0 < v < 1] or [0.5]))

    tau_one = pick([1 - u for u in uppers] + [0.05])
    th = c.Thresholds(
        tau_one=tau_one,
        tau_zero=draw_tau_zero(draw, lowers + [0.05], tau_one),
        eta_min=pick([1 - v for v in lowers] + [0.05]),
        gap=pick([float(e.upper - e.lower) for e in prof.estimates] + [0.1]),
    )
    return prof, th


class TestMetricReadDifferential:
    @given(metric_profile_cases())
    @settings(max_examples=300, deadline=None)
    def test_reads_match_the_direct_rules(self, case):
        prof, th = case
        v = c.classify_metric_pair(prof, th)
        assert (v.flags, v.separation_threshold) == metric_verdict_direct(prof, th)
        assert v.separation_upper == float(1 - prof.estimates[0].lower)


def hadamard_codes(count: int) -> np.ndarray:
    """Rows of the 8x8 Hadamard matrix in 0/1 form: pairwise Hamming
    distance exactly 4 of 8."""
    h2 = np.array([[1, 1], [1, -1]])
    h8 = np.kron(np.kron(h2, h2), h2)
    return ((1 - h8) // 2).astype(np.int8)[:count]


def pulled_back_dc2_family(n_trajectories=8, factor=20, rho=1 / 3, min_blocks=150):
    """Fiber words that agree on growing block runs and carry pairwise
    half-distant Hadamard codewords on disagree runs."""
    q = c.QSchedule((2, 2, 2))
    runs = []
    agree_len, total = 3, 0
    while total < min_blocks:
        dis = max(1, round(agree_len * rho / (1 - rho)))
        runs.append((agree_len, True))
        runs.append((dis, False))
        total += agree_len + dis
        agree_len = factor * total
    blocks_count = sum(l for l, _ in runs)
    codes = hadamard_codes(n_trajectories)
    trajectories = []
    for i in range(n_trajectories):
        free = np.zeros((blocks_count, q.p(3)), dtype=np.int8)
        pos = 0
        for length, agree in runs:
            if not agree:
                free[pos : pos + length] = codes[i]
            pos += length
        word = bl.word_from_free_words(q, free)
        trajectories.append(bl.trajectory_from_word(word))
    return q, trajectories


class TestScan:
    def _verdict_fn(self, th=WITNESS_THRESHOLDS, target="dc2"):
        def is_scrambled(pair):
            prof = c.phi_profile(c.distance_series(pair))
            return c.classify_metric_pair(prof, th).flags[target]

        return is_scrambled

    def test_all_scrambled_full_clique(self):
        q, trajectories = pulled_back_dc2_family(4)
        clique = c.scan_scrambled_set(c.all_pairs(trajectories), self._verdict_fn())
        assert clique == [0, 1, 2, 3]

    def test_none_scrambled_singleton_or_empty(self):
        spec = c.FullShift(2, (1.0, 0.0))
        trajectories = [c.sample_orbit(spec, 500, seed=i) for i in range(4)]
        pairs = c.all_pairs(trajectories)
        fn = self._verdict_fn()
        # no edges: the lowest id alone; no pairs at all: no vertex
        assert c.scan_scrambled_set(pairs, fn) == [0]
        assert c.scan_scrambled_set({}, fn) == []

    def test_eight_pullback_witnesses_form_clique(self):
        q, trajectories = pulled_back_dc2_family(8)
        clique = c.scan_scrambled_set(c.all_pairs(trajectories), self._verdict_fn())
        assert clique == list(range(8))

    def test_determinism(self):
        q, trajectories = pulled_back_dc2_family(5)
        pairs = c.all_pairs(trajectories)
        fn = self._verdict_fn()
        assert c.scan_scrambled_set(pairs, fn) == c.scan_scrambled_set(pairs, fn)

    def test_partial_graph_greedy(self):
        # edges only inside {0,1,2}: vertex 3 disagrees everywhere, so it
        # pairs with nobody
        q, trajectories = pulled_back_dc2_family(4)
        blocks_count = trajectories[0].source.binary.size // q.n(q.depth)
        loner_free = np.ones((blocks_count, q.p(3)), dtype=np.int8)
        loner = bl.trajectory_from_word(bl.word_from_free_words(q, loner_free))
        vertices = trajectories[:3] + [loner]
        clique = c.scan_scrambled_set(c.all_pairs(vertices), self._verdict_fn())
        assert clique == [0, 1, 2]

    # tent orbits whose graphs have some edges but not all: a clique of 3
    # of 9 Hamming dc2 edges and of 4 of 12 Cantor dc3 edges
    @pytest.mark.parametrize("metric,target", [("hamming-indicator", "dc2"), ("cantor", "dc3")])
    def test_all_pairs_builds_each_pair_on_read(self, metric, target):
        count = 6
        spec = c.IntervalMap("tent", 1.99)
        trajectories = [c.sample_orbit(spec, 3000, seed) for seed in range(1, count + 1)]
        pairs = c.all_pairs(trajectories)
        keys = [(i, j) for i in range(count) for j in range(i + 1, count)]
        assert list(pairs) == list(pairs.keys()) == keys and len(pairs) == len(keys)
        for (i, j), pair in pairs.items():
            eager = c.OrbitPair(trajectories[i], trajectories[j])
            for got, want in ((pair.a, eager.a), (pair.b, eager.b)):
                assert np.array_equal(got.symbols, want.symbols)
            assert "agreement" not in vars(pair)
        assert pairs[0, 1] is not pairs[0, 1]
        th = c.Thresholds(tau_one=0.5, tau_zero=0.45, gap=0.05)

        def is_scrambled(pair):
            prof = c.phi_profile(c.distance_series(pair, metric))
            return c.classify_metric_pair(prof, th).flags[target]

        clique = c.scan_scrambled_set(pairs, is_scrambled)
        assert len(clique) > 1
        assert clique == scan_clique_float_path(trajectories, metric, th, target)


def estimate_keys(profile):
    return [(e.upper, e.lower, e.checkpoints, e.count_at_horizon) for e in profile.estimates]


class TestScanCodedAgainstFloatPath:
    """Coded (table, index) distance series against the float per-pair path
    of `oracles.scan_clique_float_path`: the same profiles, the same cliques."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("system,metric", [
        (["--system", "full-shift"], "hamming-indicator"),
        (["--system", "full-shift", "--arity", "3"], "cantor"),
        (["--system", "tent", "--param", "1.99"], "cantor"),
        (["--system", "tent", "--param", "1.99"], "hamming-indicator"),
    ])
    def test_cli_scan_clique_matches_float_path(self, tmp_path, seed, system, metric):
        count, horizon = 5, 3000
        spec = _system_spec(build_parser().parse_args(["scan", *system]))
        trajectories = [c.sample_orbit(spec, horizon, seed + i) for i in range(count)]
        th = c.Thresholds(tau_one=0.55, tau_zero=0.4)
        for pair in c.all_pairs(trajectories).values():
            coded = c.phi_profile(c.distance_series(pair, metric))
            want = phi_profile_float_path(pair, metric)
            assert estimate_keys(coded) == estimate_keys(want)
        for target in ("li_yorke", "dc2", "dc3"):
            out = tmp_path / f"clique-{target}.csv"
            assert run(["scan", *system, "--metric", metric, "--count", str(count),
                        "--horizon", str(horizon), "--seed", str(seed), "--target", target,
                        "--tau-one", "0.55", "--tau-zero", "0.4", "--out", str(out)]) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            clique = [int(x) for x in rows[1:]]
            assert clique == scan_clique_float_path(trajectories, metric, th, target)

    @pytest.mark.parametrize("metric", ["hamming-indicator", "cantor"])
    def test_pullback_family_clique_matches_float_path(self, metric):
        q, trajectories = pulled_back_dc2_family(4)
        blocks_count = trajectories[0].source.binary.size // q.n(q.depth)
        loner_free = np.ones((blocks_count, q.p(3)), dtype=np.int8)
        loner = bl.trajectory_from_word(bl.word_from_free_words(q, loner_free))
        vertices = trajectories[:3] + [loner]
        th = WITNESS_THRESHOLDS

        def is_scrambled(pair):
            prof = c.phi_profile(c.distance_series(pair, metric))
            return c.classify_metric_pair(prof, th).flags["dc2"]

        clique = c.scan_scrambled_set(c.all_pairs(vertices), is_scrambled)
        assert clique == scan_clique_float_path(vertices, metric, th, "dc2")
