import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import entropy as en
from chaoslab.entropy import UndersampledWarning
from chaoslab.errors import ValidationError
from oracles import (
    count_eta_ball_direct,
    count_eta_ball_enumerated,
    cylinder_entropy_concatenated,
    plugin_entropy_direct,
    plugin_entropy_unique,
    window_mismatch_counts_direct,
)


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert c.binary_entropy(0.5) == 1.0

    def test_endpoints_zero(self):
        assert c.binary_entropy(0.0) == 0.0
        assert c.binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert math.isclose(c.binary_entropy(0.25), 0.8112781244591328, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            c.binary_entropy(1.5)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, p):
        assert math.isclose(c.binary_entropy(p), c.binary_entropy(1 - p), rel_tol=1e-9)
        assert 0 < c.binary_entropy(p) <= 1


class TestBlockCountEntropy:
    def test_family_signature(self):
        q = c.QSchedule((2, 2, 2))
        report = c.block_count_entropy((q.family_size(k), q.n(k)) for k in (1, 2, 3))
        assert list(report.rates) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def test_full_shift_one_bit(self):
        report = c.block_count_entropy([(2**8, 8)])
        assert report.rates[0] == Fraction(1)

    def test_singleton_zero(self):
        report = c.block_count_entropy([(1, 10)])
        assert report.rates[0] == 0

    def test_non_power_of_two_float(self):
        report = c.block_count_entropy([(3, 2)])
        assert math.isclose(report.rates[0], math.log2(3) / 2)


class TestCylinderEntropy:
    def test_constant_track(self):
        assert c.empirical_cylinder_entropy(np.zeros(5000, dtype=int), 4) == 0.0

    def test_fair_bits_near_one(self):
        bits = np.random.default_rng(7).integers(0, 2, 100000)
        h = c.empirical_cylinder_entropy(bits, 8)
        assert abs(h - 1.0) <= 0.05

    def test_matches_direct_counter(self):
        bits = np.random.default_rng(3).integers(0, 3, 4000)
        for stride in (1, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ours = c.empirical_cylinder_entropy(bits, 4, stride=stride)
            assert math.isclose(ours, plugin_entropy_direct(bits, 4, stride), rel_tol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_strided_windows_match_direct_counter(self, stride):
        # words shorter than, equal to, and 1 to 3 blocks longer than the
        # stride (with and without a remainder), on tracks whose last
        # window ends at the last symbol or short of it
        rng = np.random.default_rng(stride)
        for alphabet, size in ((2, 3001), (3, 2000), (2, 64)):
            track = rng.integers(0, alphabet, size)
            for word_len in sorted({1, 2, 3, stride, stride + 1, 2 * stride + 1, 3 * stride, 19}):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UndersampledWarning)
                    ours = c.empirical_cylinder_entropy(track, word_len, stride)
                want = plugin_entropy_direct(track, word_len, stride)
                assert math.isclose(ours, want, rel_tol=1e-12, abs_tol=1e-15), (
                    alphabet, size, word_len)
                assert repr(ours) == repr(plugin_entropy_unique(track, word_len, stride))

    def test_undersampled_warns_not_fails(self):
        with pytest.warns(UndersampledWarning):
            c.empirical_cylinder_entropy(np.ones(200, dtype=int), 8)

    def test_word_codes_beyond_int64_rejected(self):
        # two distinct words, so the true rate is positive; int64 weights
        # would wrap 2^64 to 0 and report -0.0
        track = np.zeros(200, dtype=int)
        track[0] = 1
        for word_len in (64, 65):
            with pytest.raises(ValidationError, match="int64"):
                c.empirical_cylinder_entropy(track, word_len)
        track[1] = 4  # an alphabet of 5: 5^27 fits in int64, 5^28 does not
        with pytest.warns(UndersampledWarning):
            c.empirical_cylinder_entropy(track, 27)
        with pytest.raises(ValidationError, match="int64"):
            c.empirical_cylinder_entropy(track, 28)

    def test_largest_word_codes_exact(self):
        # 2^63 codes is the largest table that fits
        track = np.zeros(200, dtype=int)
        track[0] = 1
        with pytest.warns(UndersampledWarning):
            h = c.empirical_cylinder_entropy(track, 63)
        assert h > 0
        assert repr(h) == repr(plugin_entropy_unique(track, 63))
        assert math.isclose(h, plugin_entropy_direct(track, 63, 1), rel_tol=1e-12)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_negative_symbols_rejected(self, dtype):
        track = np.array([0, 1, -1, 1] * 50, dtype=dtype)
        with pytest.raises(ValidationError, match="symbols must be >= 0, got -1"):
            c.empirical_cylinder_entropy(track, 2)

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    def test_non_integer_symbols_rejected(self, bad):
        track = np.array([0.0, 1.0, bad, 1.0] * 50)
        with pytest.raises(ValidationError, match="symbols must be integers"):
            c.empirical_cylinder_entropy(track, 2)

    def test_integral_float_symbols_accepted(self):
        bits = np.random.default_rng(5).integers(0, 2, 3000)
        assert c.empirical_cylinder_entropy(bits.astype(float), 3) == (
            c.empirical_cylinder_entropy(bits, 3)
        )


class TestCylinderEntropyChunks:
    """Windows are coded and counted WINDOW_CHUNK at a time: the count must
    not depend on where the chunks fall, on either count path."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_counts_match_unique_oracle(self, chunk, monkeypatch):
        # window counts one short of a chunk, one chunk, one past it and
        # three chunks and two; strides below, at and above the word length;
        # up to stride - 1 trailing symbols that no window reads
        monkeypatch.setattr(en, "WINDOW_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        paths = set()
        for windows in sorted({max(chunk - 1, 1), chunk, chunk + 1, 3 * chunk + 2}):
            for word_len in (1, 2, 3, 5):
                for stride in sorted({max(word_len - 1, 1), word_len, word_len + 1}):
                    for alphabet in (2, 3):
                        size = (windows - 1) * stride + word_len + int(rng.integers(0, stride))
                        track = rng.integers(0, alphabet, size)
                        track[0] = alphabet - 1
                        paths.add(alphabet**word_len <= windows)  # the table path
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", UndersampledWarning)
                            ours = c.empirical_cylinder_entropy(track, word_len, stride)
                        want = plugin_entropy_unique(track, word_len, stride)
                        assert repr(ours) == repr(want), (windows, word_len, stride, alphabet)
        assert paths == {True, False}

    def test_table_count_memory_is_bounded_by_the_chunk(self):
        # 2^20 windows of 12 bits: one chunk's codes at a time, not 2^20 of
        # them with their intp cast (12.6 MB)
        track = np.random.default_rng(1).integers(0, 2, 2**20).astype(np.uint8)
        tracemalloc.start()
        try:
            c.empirical_cylinder_entropy(track, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestCylinderEntropySortCount:
    """Where the count table does not fit the sample, the chunks' codes fill
    one array, sorted in place and counted by runs: the rate of the
    concatenating np.unique count, bit for bit, in about half its memory
    on a biased track."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("ones", [0.5, 0.05, 0.0])
    def test_matches_concatenated_unique(self, chunk, ones, monkeypatch):
        monkeypatch.setattr(en, "WINDOW_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for size, word_len, stride in ((2000, 12, 1), (3001, 20, 3), (500, 62, 1)):
            track = (rng.random(size) < ones).astype(np.uint8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UndersampledWarning)
                ours = c.empirical_cylinder_entropy(track, word_len, stride)
            assert repr(ours) == repr(cylinder_entropy_concatenated(track, word_len, stride))

    def test_sort_count_holds_one_code_array(self):
        # 2^20 windows of 20 bits with 5% ones: 4 MiB of uint32 codes and a
        # 1 MiB run mask; the concatenating count peaked at 10.0 MiB
        track = (np.random.default_rng(2).random(2**20) < 0.05).astype(np.uint8)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UndersampledWarning)
                c.empirical_cylinder_entropy(track, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20


@st.composite
def entropy_cases(draw, table_fits):
    """(track, word_len, stride, alphabet) with up to 3,000 symbols, the
    largest alphabet - 1 (or 0 or 1 on a binary alphabet), whose
    alphabet^word_len count table is at most the number of windows
    (table_fits) or above it."""
    alphabet = draw(st.integers(2, 4))
    stride = draw(st.integers(1, 4))

    def need(l):  # windows = (N - l) // stride + 1 >= alphabet^l  <=>  N >= need(l)
        return (alphabet**l - 1) * stride + l

    if table_fits:
        word_len = draw(st.integers(1, 10).filter(lambda l: need(l) <= 3000))
        n = draw(st.integers(need(word_len), 3000))
    else:
        word_len = draw(st.integers(1, 10))
        n = draw(st.integers(word_len, min(3000, need(word_len) - 1)))
    used = draw(st.integers(1, alphabet))  # symbols in [0, used)
    seed = draw(st.integers(0, 2**32 - 1))
    track = np.random.default_rng(seed).integers(0, used, n)
    if alphabet > 2:  # the largest symbol sets the alphabet
        track[draw(st.integers(0, n - 1))] = alphabet - 1
    if draw(st.booleans()):
        track = np.sort(track)  # few distinct words
    return track, word_len, stride, alphabet


class TestCylinderEntropyExact:
    """The table count and the sort count against the int64 dot-product and
    np.unique oracle, equal by repr."""

    @pytest.mark.parametrize("table_fits", [True, False], ids=["table", "sort"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_unique_oracle(self, table_fits, data):
        track, word_len, stride, alphabet = data.draw(entropy_cases(table_fits))
        windows = (track.size - word_len) // stride + 1
        assert (alphabet**word_len <= windows) == table_fits
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndersampledWarning)
            ours = c.empirical_cylinder_entropy(track, word_len, stride)
            assert repr(ours) == repr(plugin_entropy_unique(track, word_len, stride))


class TestPipka:
    def test_feasibility_frozen_grid(self):
        # frozen from direct substitution into the inequality
        expected = {0.25: (5, 0.01), 0.5: (7, 0.005), 0.81: (15, 0.005), 0.9: (36, 0.005)}
        for eta, (m, eps) in expected.items():
            params = c.solve_pipka(eta, 1.0, 2)
            assert params.feasible
            assert (params.m, params.eps) == (m, eps)
            assert params.margin > 0
            # independent substitution of both constraints
            root = math.sqrt(eta)
            lhs = 2 * c.binary_entropy(root) / params.m + params.eps * 7
            assert lhs < (1 - root) * 1.0
            assert params.eps < 1 - root

    def test_explicit_pair_feasible_at_081(self):
        root = math.sqrt(0.81)
        lhs = 2 * c.binary_entropy(root) / 15 + 0.005 * (3 * 2 + 1)
        assert lhs < (1 - root) * 1.0

    def test_tiny_eta_allows_m_one(self):
        params = c.solve_pipka(1e-4, 1.0, 2)
        assert params.feasible and params.m == 1

    def test_h_zero_infeasible(self):
        params = c.solve_pipka(0.5, 0.0, 2)
        assert not params.feasible
        assert params.m is None

    def test_m_beyond_the_float_range_is_infeasible(self):
        # slack near 3e-311: 2H / slack overflows, so no m can be checked
        params = c.solve_pipka(0.5, 1e-310, 2, eps_grid=(5e-324,))
        assert not params.feasible and params.m is None

    def test_smallest_m_with_largest_feasible_eps(self):
        params = c.solve_pipka(0.81, 1.0, 2, eps_grid=(0.001, 0.005, 0.02))
        # eps = 0.001 leaves slack 0.093, so m must exceed 2H(0.9)/0.093 =
        # 10.09: smallest strict m is 11, and only eps = 0.001 fits there
        assert params.m == 11
        assert params.eps == 0.001


class TestCountEtaBall:
    def test_eta_above_one_counts_everything(self):
        assert c.count_eta_ball("0" * 8, 2, 1.5) == 256

    def test_tiny_eta_counts_only_center(self):
        # strictly fewer than one window must differ: only a0 itself
        for n, m in ((8, 2), (8, 3), (10, 2)):
            assert c.count_eta_ball("0" * n, m, 1.0 / (n - m + 1)) == 1

    def test_frozen_example(self):
        assert c.count_eta_ball("0" * 8, 2, 0.5) == 31

    def test_cross_check_direct_enumeration(self):
        for n, m, eta in ((8, 2, 0.25), (8, 3, 0.5), (10, 2, 0.75), (9, 3, 0.5)):
            direct = count_eta_ball_direct("0" * n, m, eta)
            assert c.count_eta_ball("0" * n, m, eta) == direct

    def test_independent_of_center_block(self):
        for a0 in ("01010101", "11110000", "10010110"):
            assert c.count_eta_ball(a0, 2, 0.5) == c.count_eta_ball("0" * 8, 2, 0.5)
            assert count_eta_ball_direct(a0, 2, 0.5) == 31

    def test_monotone_in_eta(self):
        counts = [c.count_eta_ball("0" * 10, 3, eta) for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.1)]
        assert counts == sorted(counts)
        assert counts[-1] == 1024

    def test_guard(self):
        # no size guard: n = 21 is counted exactly (m = 1: the binomial
        # tail of fewer than 10.5 differing bits, half of all 2^21 blocks)
        assert c.count_eta_ball("0" * 21, 1, 0.5) == sum(math.comb(21, j) for j in range(11))
        assert c.count_eta_ball("0" * 21, 1, 0.5) == 2**20
        with pytest.raises(ValidationError):
            c.count_eta_ball("0" * 8, 9, 0.5)

    @pytest.mark.parametrize("a0", [[0.9, 1, 0], np.array([256, 1, 0]), "0120"], ids=repr)
    def test_non_bit_block_rejected(self, a0):
        # checked before any cast, so 0.9 is not truncated and 256 not
        # wrapped into a bit; a string may hold only 0 and 1
        with pytest.raises(ValidationError):
            c.count_eta_ball(a0, 1, 0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValidationError, match="eta must be finite"):
            c.count_eta_ball("0" * 8, 2, eta)

    def test_exact_rational_threshold(self):
        # eta exactly 1/W sits on the strict boundary: only the center block
        # qualifies, whether eta arrives as a Fraction or its float image
        n, m = 10, 2
        w = n - m + 1
        assert c.count_eta_ball("0" * n, m, Fraction(1, w)) == 1
        direct = count_eta_ball_direct("0" * n, m, 1 / w)
        assert c.count_eta_ball("0" * n, m, 1 / w) == direct


class TestEtaBallDP:
    """The transfer-automaton count against enumeration of all 2^n masks,
    and against closed forms where enumeration is out of reach."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_enumeration(self, data):
        n = data.draw(st.integers(1, 14))
        m = data.draw(st.integers(1, n))
        nwin = n - m + 1
        eta = data.draw(
            st.one_of(
                st.floats(-0.25, 1.5, allow_nan=False),
                # boundary values k/nwin, where the strict threshold bites
                st.integers(-1, nwin + 1).map(lambda k: Fraction(k, nwin)),
                st.integers(-1, nwin + 1).map(lambda k: k / nwin),
            )
        )
        a0 = data.draw(st.text("01", min_size=n, max_size=n))
        assert c.count_eta_ball(a0, m, eta) == count_eta_ball_enumerated(n, m, eta)

    @pytest.mark.parametrize("n", [21, 64, 200, 1024])
    def test_closed_forms(self, n):
        zeros = "0" * n
        for eta in (Fraction(1, 4), 0.5, Fraction(2, 3)):
            # m = 1: windows are bits, so the ball is a binomial tail
            tail = sum(math.comb(n, j) for j in range(n + 1) if j < Fraction(eta) * n)
            assert c.count_eta_ball(zeros, 1, eta) == tail
        for m in (1, 3, n):
            nwin = n - m + 1
            assert c.count_eta_ball(zeros, m, 1.5) == 2**n
            assert c.count_eta_ball(zeros, m, Fraction(1, nwin)) == 1
            assert c.count_eta_ball(zeros, m, Fraction(1, 2 * nwin)) == 1
            assert c.count_eta_ball(zeros, m, 0) == 0
        # m = n: one window, which agrees only for the centre block itself
        assert c.count_eta_ball(zeros, n, 0.5) == 1
        assert c.count_eta_ball(zeros, n, Fraction(1, 1)) == 1
        assert c.count_eta_ball(zeros, n, Fraction(n + 1, n)) == 2**n


class TestPipkaMargin:
    @given(
        st.decimals("0.001", "0.999", places=3).map(float),
        st.decimals("0", "3", places=2).map(float),
        st.integers(2, 6),
        st.lists(st.decimals("0.001", "0.3", places=3).map(float), min_size=1, max_size=4),
    )
    @example(0.25, 1.1, 3, [0.03])  # 2/8 + 0.30 ties 0.55 exactly
    @settings(max_examples=300, deadline=None)
    def test_smallest_m_with_positive_margin(self, eta, h, card, grid):
        try:
            params = c.solve_pipka(eta, h, card, grid)
        except ValidationError:
            return
        root = math.sqrt(eta)
        usable = [e for e in grid if e < 1 - root]

        def margin(m, eps):
            return (1 - root) * h - (2 * c.binary_entropy(root) / m + eps * (3 * card + 1))

        if not params.feasible:
            assert params.m is None
            assert not any(margin(1e300, e) > 0 for e in usable)
            return
        assert params.margin == margin(params.m, params.eps) > 0
        assert params.eps == max(e for e in usable if margin(params.m, e) > 0)
        if params.m > 1:
            assert not any(margin(params.m - 1, e) > 0 for e in usable)


class TestEtaBallBound:
    def test_flag_true_with_solver_params(self):
        params = c.solve_pipka(0.81, 1.0, 2)
        n = 4096  # large n: log2(m)/n shrinks into the solver's margin
        delta = params.margin / 8
        bound = c.eta_ball_bound(n, params.m, 0.81, params.eps, 1.0, 2, delta)
        assert bound.flag

    def test_flag_false_with_large_delta(self):
        params = c.solve_pipka(0.81, 1.0, 2)
        bound = c.eta_ball_bound(4096, params.m, 0.81, params.eps, 1.0, 2, 0.4)
        assert not bound.flag

    def test_monotone_in_eps_and_m(self):
        values_eps = [
            c.eta_ball_bound(64, 4, 0.5, eps, 1.0, 2, 0.01).log2_value
            for eps in (0.001, 0.01, 0.05, 0.1)
        ]
        assert values_eps == sorted(values_eps)
        values_m = [
            c.eta_ball_bound(64, m, 0.5, 0.01, 1.0, 2, 0.01).log2_value
            for m in (1, 2, 4, 8, 16)
        ]
        assert values_m == sorted(values_m, reverse=True)

    def test_value_beyond_float_range_is_inf(self):
        bound = c.eta_ball_bound(1023, 5, 0.5, 0.005, 1.0, 2, 0.01)
        assert bound.log2_value > 1024
        assert bound.value == math.inf
        assert not bound.flag  # decided in log2 space, not from the value
        assert c.BallBound(log2_value=10.0, log2_target=0.0).value == 1024.0

    @pytest.mark.parametrize(
        "n, m", [(10, 0), (0, 1), (5, 9)], ids=["m-zero", "n-zero", "m-above-n"]
    )
    def test_window_domain_shared_with_the_count(self, n, m):
        with pytest.raises(ValidationError, match=r"^need 1 <= m <= n$"):
            c.eta_ball_bound(n, m, 0.5, 0.005, 1.0, 2, 0.01)

    def test_eps_domain(self):
        with pytest.raises(ValidationError):
            c.eta_ball_bound(64, 4, 0.81, 0.2, 1.0, 2, 0.01)  # eps >= 1 - 0.9


class TestKernelBackends:
    def test_window_counts_parity(self):
        # the counting DP against the enumeration kernel it replaced: the
        # cumulative histogram of disagreeing-window counts, threshold by
        # threshold, for every (n, m) up to n = 12
        for n in range(1, 13):
            for m in range(1, n + 1):
                counts = window_mismatch_counts_direct(n, m)
                assert int(counts[0]) == 0
                nwin = n - m + 1
                for k in range(nwin + 2):
                    expected = int(np.count_nonzero(counts < k))
                    assert c.count_eta_ball("0" * n, m, Fraction(k, nwin)) == expected

    # sha256 of sample_orbit(IntervalMap(kind, parameter), 10**5, seed).reals
    # .tobytes(): pins the orbit loops bit for bit, so any change to their
    # float expressions, even a reassociation, fails here
    ORBIT_SHA256 = {
        ("tent", 1.97, 1): "2f61833dc405723fe93239e892566c968626355d43235254c4c11dfad0446e50",
        ("tent", 1.97, 7): "468c092b262e41c64f2235a1b7b42aedea60abd28cc987efa640161e0ed47561",
        ("tent", 1.99, 1): "1afff86edfc8cfdae1674647f17b29330266c8860b3373ade9c14a507ab53bae",
        ("tent", 1.99, 7): "c01e04b0b188e6a3aa36cd666c52c28e67ee14d685e14b678e9400494766236e",
        ("logistic", 3.91, 1): "1667d2381d39dc39d5380bdfd40294c131009461224da90ff8df2a2e6ee96788",
        ("logistic", 3.91, 7): "705cb8d19f9c5fb7067d6d46f5c5ca18de9d2af987f12290f5d6c531089c9702",
        ("logistic", 4.0, 1): "3a5703bedd41a8857ea78b100888504ef1ded3d25479e3da83cf0d76de27b4fa",
        ("logistic", 4.0, 7): "ac6328f72c47480523b22f2f641b230dcfbb42b95a7ddb3fbaa20f4433c05dcf",
    }

    def test_orbit_parity(self):
        got = {
            (kind, parameter, seed): hashlib.sha256(
                c.sample_orbit(c.IntervalMap(kind, parameter), 10**5, seed).reals.tobytes()
            ).hexdigest()
            for kind, parameter, seed in self.ORBIT_SHA256
        }
        assert got == self.ORBIT_SHA256
