"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them) and holding
its stated runtime budget.

Criterion 9's second clause (the count/2^n monotonicity in n) is asserted
exactly as stated and is expected to FAIL: the strict integer thresholds
eta*(n-m+1) bounce on the stated grid, and at (m=2, eta=0.75) eta equals
1-2^-m, the expected fraction of disagreeing windows for a uniform random
block, so the ratio stays near one half at every n instead of falling. The
analysis lives in the failure message; the first clause (count <= bound)
passes in full.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import chaoslab as c
from chaoslab import blocks as bl
from chaoslab import density as de
from chaoslab.cli import run as cli_run
from oracles import aligned_window_scheme, partition_verdict_direct, runs_to_mask

REPORT = []


class criterion:
    """Times a criterion body, enforces its runtime budget and prints the
    pass/fail line."""

    def __init__(self, number, budget_s, detail=""):
        self.number = number
        self.budget = budget_s
        self.detail = detail

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def note(self, text):
        self.detail = text

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        line = (
            f"[{status}] criterion {self.number:2d} "
            f"({elapsed:6.2f}s <= {self.budget}s) {self.detail}"
        )
        REPORT.append(line)
        print(line)
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} over budget: {elapsed:.2f}s"
        return False


def test_criterion_01_parameter_table():
    with criterion(1, 1.0) as crit:
        table33 = c.derive_params(c.QSchedule((3, 3)))
        assert [p.n_k for p in table33] == [6, 36]
        q = c.QSchedule((2, 2, 2))
        assert q.family_size(3) == 256
        assert q.n(3) == 64
        assert q.b_length(3) == 32
        crit.note("q=(3,3): N=(6,36); q=(2,2,2): #C_3=256, N_3=64, lenB_3=32")


def test_criterion_02_pi_bijection():
    with criterion(2, 1.0) as crit:
        q = c.QSchedule((2, 2, 2))
        family = c.enumerate_family(q, 3)
        words = set()
        for row in family:
            w = c.pi(q, 3, row)
            words.add(w.tobytes())
            assert np.array_equal(c.encode_block(q, 3, w), row)
        assert len(words) == 256  # injective, hence onto all 8-bit words
        for k in (1, 2):
            for row in c.enumerate_family(q, k + 1):
                half = row[: q.b_length(k + 1)]
                comps = half.reshape(q.q[k], q.n(k))
                concat = np.concatenate([c.pi(q, k, comp) for comp in comps])
                assert np.array_equal(c.pi(q, k + 1, row), concat)
        crit.note("256 members: injective+onto, two-sided inverse, recursion at k=1,2")


def test_criterion_03_percentage_preservation():
    with criterion(3, 30.0) as crit:
        q = c.QSchedule((2, 2, 2))
        family = c.enumerate_family(q, 3).astype(np.int16)
        words = np.array([c.pi(q, 3, row) for row in c.enumerate_family(q, 3)]).astype(
            np.int16
        )
        diff_entries = (family[:, None, :] != family[None, :, :]).sum(axis=2)
        diff_word_entries = (words[:, None, :] != words[None, :, :]).sum(axis=2)
        # entry fractions: ce/64 == ci/8  <=>  ce == 8*ci, exactly
        assert np.array_equal(diff_entries, 8 * diff_word_entries)
        sweeps = [(1, 1, diff_entries, diff_word_entries)]
        for k in (1, 2):
            nk, pk = q.n(k), q.p(k)
            comp = family.reshape(256, -1, nk)
            comp_diff = (
                (comp[:, None, :, :] != comp[None, :, :, :]).any(axis=3).sum(axis=2)
            )
            img = words.reshape(256, -1, pk)
            img_diff = (img[:, None, :, :] != img[None, :, :, :]).any(axis=3).sum(axis=2)
            # cc/(64/nk) == ci/(8/pk): both denominators are 2^(3-k)... equal
            assert np.array_equal(comp_diff * (8 // pk), img_diff * (64 // nk))
            sweeps.append((nk, pk, comp_diff, img_diff))
        # spot-check the vectorized sweep against differing_components, the
        # count `verify --suite percentage` runs, cross-multiplied as it does
        i, j = np.random.default_rng(0).integers(0, 256, (2, 50))
        for n_l, p_l, comp_diff, img_diff in sweeps:
            blocks_diff = bl.differing_components(family[i], family[j], n_l)
            words_diff = bl.differing_components(words[i], words[j], p_l)
            assert np.array_equal(blocks_diff, comp_diff[i, j])
            assert np.array_equal(words_diff, img_diff[i, j])
            assert np.array_equal(blocks_diff * (8 // p_l), words_diff * (64 // n_l))
        crit.note("256^2 ordered pairs, entry + component levels k=1,2: exact, 0 failures")


def test_criterion_04_entropy_zero_signature():
    with criterion(4, 10.0) as crit:
        q6 = c.QSchedule((2,) * 6)
        report = c.block_count_entropy((q6.family_size(k), q6.n(k)) for k in range(1, 7))
        assert list(report.rates) == [Fraction(1, 2**k) for k in range(1, 7)]
        # The sampled row keeps the forced-repetition structure at every level
        # covering the horizon (q = 2 continued: N_9 = 262144 >= 1e5). The
        # plug-in estimate uses block-aligned words: overlapping windows mix
        # the window phase into the word distribution and sit near 0.73
        # regardless of depth, which no marker-block row can beat; aligned
        # words see the halving directly.
        horizon = 100000
        q9 = c.QSchedule((2,) * 9)
        word = bl.sample_point(q9, seed=31337, offset=0)
        track = word.symbol_track(horizon)
        aligned = c.empirical_cylinder_entropy(track, 8, stride=8)
        overlapping = c.empirical_cylinder_entropy(track, 8, stride=1)
        fair = np.random.default_rng(99).integers(0, 2, horizon)
        fair_aligned = c.empirical_cylinder_entropy(fair, 8, stride=8)
        assert aligned <= 0.5
        assert abs(fair_aligned - 1.0) <= 0.05
        crit.note(
            f"rates 2^-k exact k=1..6; row H_8/8 aligned={aligned:.4f} <= 0.5 "
            f"(overlapping={overlapping:.4f}), fair bits {fair_aligned:.4f}"
        )


def test_criterion_05_phi_calibration():
    with criterion(5, 5.0) as crit:
        # exact agreement probability 1/2; seeds fixed; burn-in 10^4 so the
        # checkpoint grid averages past early fluctuation
        pair = c.make_pair(c.FullShift(2, (0.5, 0.5)), 100000, (1, 2))
        d = c.distance_series(pair, "hamming-indicator")
        prof = c.phi_profile(d, 10000)
        star_dev = float(np.abs(prof.phi_star - 0.5).max())
        low_dev = float(np.abs(prof.phi_lower - 0.5).max())
        assert star_dev <= 0.02 and low_dev <= 0.02
        crit.note(f"seeds (1,2), burn-in 1e4: max deviations {star_dev:.4f}/{low_dev:.4f}")


def test_criterion_06_oscillating_density():
    with criterion(6, 10.0) as crit:
        horizon = 4**10
        pair = c.construct_witness_pair("DC3", horizon)
        d = c.distance_series(pair, "hamming-indicator")
        prof = c.phi_profile(d)
        assert abs(prof.phi_star[0] - 2 / 3) <= 0.05
        assert abs(prof.phi_lower[0] - 1 / 3) <= 0.05
        verdict = c.classify_partition_pair(pair, c.cylinder_scheme(2), c.Thresholds())
        gap = max(verdict.gap_by_k.values())
        assert verdict.pk_minus and gap >= 0.1
        crit.note(
            f"phi*={prof.phi_star[0]:.4f}~2/3, phi={prof.phi_lower[0]:.4f}~1/3, "
            f"pk_minus gap {gap:.3f}"
        )


def _classify(series, th, burn_in=None):
    """Metric verdict of a DistanceSeries, or of N float distances."""
    if not isinstance(series, c.DistanceSeries):
        series = c.DistanceSeries.from_values(np.asarray(series, dtype=float))
    return c.classify_metric_pair(c.phi_profile(series, burn_in), th)


def _chain_ok(v):
    return (
        ((not v.dc1) or v.dc1half)
        and ((not v.dc1half) or v.dc2)
        and ((not v.dc2) or v.dc3)
        and ((not v.dc2) or v.li_yorke)
    )


def test_criterion_07_constructor_classifier_round_trip():
    with criterion(7, 60.0) as crit:
        th = c.Thresholds(tau_one=0.25, tau_zero=0.25)
        cases = {
            "DC1": ("dc1", 7776),
            "DC1half": ("dc1half", 7776),
            "DC2": ("dc2", 10000),
            "DC3": ("dc3", 4**10),
            "LY": ("li_yorke", 100000),
        }
        for target, (flag, horizon) in cases.items():
            pair = c.construct_witness_pair(target, horizon)
            assert len(c.witness_runs(target, horizon)) >= 6
            v = _classify(c.distance_series(pair), th)
            assert v.flags[flag], f"{target} witness missed its target flag"
            assert _chain_ok(v)
        rng = np.random.default_rng(777)
        violations = 0
        for i in range(1000):
            kind = i % 5
            n = 400
            if kind == 0:
                values = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
            elif kind == 1:
                values = rng.uniform(size=n)
            elif kind == 2:  # blocky runs
                values = np.repeat(
                    rng.integers(0, 2, 20).astype(float), rng.integers(5, 40, 20)
                )[:n]
                if values.size < n:
                    values = np.pad(values, (0, n - values.size))
            elif kind == 3:
                values = np.zeros(n)
            else:
                values = np.minimum(rng.exponential(0.2, size=n), 1.0)
            ths = c.Thresholds(
                tau_one=float(rng.uniform(0.05, 0.4)),
                tau_zero=float(rng.uniform(0.05, 0.4)),
            )
            if not _chain_ok(_classify(values, ths, burn_in=20)):
                violations += 1
        assert violations == 0
        crit.note("5 witness targets hit; chain clean on witnesses + 1000 random pairs")


def test_criterion_08_pipka_solver():
    with criterion(8, 1.0) as crit:
        results = {}
        for eta in (0.25, 0.5, 0.81, 0.9):
            params = c.solve_pipka(eta, 1.0, 2)
            assert params.feasible
            root = math.sqrt(eta)
            lhs = 2 * (-root * math.log2(root) - (1 - root) * math.log2(1 - root)) / params.m
            lhs += params.eps * (3 * 2 + 1)
            assert lhs < (1 - root) * 1.0  # independent substitution
            assert params.eps < 1 - root
            results[eta] = (params.m, params.eps)
        root = math.sqrt(0.81)
        explicit = 2 * c.binary_entropy(root) / 15 + 0.005 * 7
        assert explicit < (1 - root) * 1.0  # (eps, m) = (0.005, 15) admitted
        crit.note(f"(m,eps) per eta: {results}; (0.005,15) feasible at 0.81")


def test_criterion_09_counting_bound():
    with criterion(9, 60.0) as crit:
        etas = (0.25, 0.5, 0.75)
        ms = (2, 3)
        ns = (8, 10, 12)
        fractions = {}
        for m in ms:
            for eta in etas:
                solver = c.solve_pipka(eta, 1.0, 2)
                for n in ns:
                    for a0 in ("0" * n, ("01" * n)[:n]):
                        count = c.count_eta_ball(a0, m, eta)
                        bound = c.eta_ball_bound(n, m, eta, solver.eps, 1.0, 2, 0.01)
                        assert math.log2(count) <= bound.log2_value, (
                            f"count exceeds bound at n={n} m={m} eta={eta}"
                        )
                        fractions[(m, eta, n)] = Fraction(count, 2**n)
        bad = []
        for m in ms:
            for eta in etas:
                seq = [fractions[(m, eta, n)] for n in ns]
                if not all(a >= b for a, b in zip(seq, seq[1:])):
                    bad.append((m, eta, [f"{float(x):.6f}" for x in seq]))
        crit.note(
            "count <= bound on the full grid; "
            + (
                "fractions nonincreasing"
                if not bad
                else f"monotonicity fails at {[(m, e) for m, e, _ in bad]}"
            )
        )
        if bad:
            pytest.fail(
                "count/2^n is NOT nonincreasing in n on the stated grid: "
                + "; ".join(f"(m={m}, eta={eta}): {seq}" for m, eta, seq in bad)
                + ". The strict threshold eta*(n-m+1) crosses integers "
                "unevenly as n moves 8->10->12 (e.g. eta=0.25, m=2 allows "
                "<=1 disagreeing window at n=8 but <=2 at n=10), so the "
                "desk-scale fractions bounce. The long-run direction depends "
                "on eta against 1-2^-m, the expected fraction of disagreeing "
                "windows for a uniform random block: below it, as at "
                "(m=2, eta=0.25) and (m=3, eta=0.75), the ratio falls over "
                "larger n; at (m=2, eta=0.75) eta equals it, so the ball "
                "holds about half of all blocks at every n and the ratio "
                "swings between about 1/3 and 1/2 (0.508 at n=8, 0.334 at "
                "n=9, 0.507 at n=20) without falling. The exact counts are "
                "cross-checked against direct enumeration; the clause is "
                "unattainable as stated."
            )


def test_criterion_10_scrambling_transfer():
    with criterion(10, 60.0) as crit:
        q = c.QSchedule((2, 2, 2))
        pk3, nk3 = q.p(3), q.n(3)
        # block-run schedule: agree runs grow by factor 20, disagree runs are
        # a quarter of each period, in whole top-level blocks
        runs = []
        agree_len, total = 3, 0
        while total < 2000:
            dis = max(1, agree_len // 3)
            runs.append((agree_len, True))
            runs.append((dis, False))
            total += agree_len + dis
            agree_len = 20 * total
        blocks_count = sum(l for l, _ in runs)
        agree_blocks = np.zeros(blocks_count, dtype=bool)
        pos = 0
        for length, agree in runs:
            if agree:
                agree_blocks[pos : pos + length] = True
            pos += length
        free_x = np.zeros((blocks_count, pk3), dtype=np.int8)
        free_y = np.zeros((blocks_count, pk3), dtype=np.int8)
        free_y[~agree_blocks] = 1
        word_x = bl.word_from_free_words(q, free_x)
        word_y = bl.word_from_free_words(q, free_y)
        pair = c.OrbitPair(
            bl.trajectory_from_word(word_x), bl.trajectory_from_word(word_y)
        )
        th = c.Thresholds()
        scheme = c.central_block_scheme(q)
        verdict = c.classify_partition_pair(pair, scheme, th)
        assert verdict.pk_scrambled and verdict.k0 == 1

        # product side: the free-word tracks under the aligned-window scheme
        spec = c.FullShift(2, (0.5, 0.5))
        img_x = c.Trajectory(spec, blocks_count * pk3, symbols=free_x.reshape(-1).astype(np.int64))
        img_y = c.Trajectory(spec, blocks_count * pk3, symbols=free_y.reshape(-1).astype(np.int64))
        img_pair = c.OrbitPair(img_x, img_y)
        img_scheme = aligned_window_scheme([q.p(k) for k in (1, 2, 3)])
        # oracle: the product-side pair classifies the same way directly
        img_verdict = c.classify_partition_pair(img_pair, img_scheme, th)
        assert img_verdict.pk_scrambled and img_verdict.k0 == 1

        burn = max(100, pair.horizon // 1000)
        first_block = max(1, -(-burn // nk3))
        aligned = list(range(first_block, blocks_count + 1))
        cps_x = [b * nk3 for b in aligned]
        cps_img = [b * pk3 for b in aligned]
        planes_x = c.same_atom_series(pair, scheme)
        planes_img = c.same_atom_series(img_pair, img_scheme)
        for k in (1, 2, 3):
            s_x = c.unpack_times(planes_x[k - 1], pair.horizon)
            s_img = c.unpack_times(planes_img[k - 1], img_pair.horizon)
            # the same-atom set, then the different-atom set (its complement),
            # read along the aligned checkpoints of each side
            for same_x, same_img in ((s_x, s_img), (~s_x, ~s_img)):
                (ex,) = de.nested_density_estimates(c.pack_times(same_x)[None], s_x.size, cps_x)
                (ei,) = de.nested_density_estimates(
                    c.pack_times(same_img)[None], s_img.size, cps_img)
                for dx, di in ((ex.upper, ei.upper), (ex.lower, ei.lower)):
                    assert abs(float(dx) - float(di)) <= 0.05, (k, dx, di)

        # different-fiber pairs: never scrambled; at offsets that differ at
        # level 1 the same-atom set at k=1 is empty, exactly
        rng = np.random.default_rng(4242)
        checked_k1 = 0
        for trial in range(20):
            o1 = int(rng.integers(0, nk3))
            o2 = int(rng.integers(0, nk3))
            if o1 == o2:
                o2 = (o2 + 1) % nk3
            horizon = 4 * nk3 - max(o1, o2)
            wa = bl.sample_point(q, seed=9000 + 2 * trial, horizon=horizon, offset=o1)
            wb = bl.sample_point(q, seed=9001 + 2 * trial, horizon=horizon, offset=o2)
            dpair = c.OrbitPair(
                bl.trajectory_from_word(wa, horizon),
                bl.trajectory_from_word(wb, horizon),
            )
            dverdict = c.classify_partition_pair(dpair, scheme, c.Thresholds(burn_in=50))
            assert not dverdict.pk_scrambled
            if o1 % q.n(1) != o2 % q.n(1):
                assert not np.any(c.same_atom_series(dpair, scheme)[0])
                checked_k1 += 1
        assert checked_k1 >= 5
        crit.note(
            f"pullback pk_scrambled k0=1 over {blocks_count} blocks; densities match "
            f"product side at {len(aligned)} aligned checkpoints; {checked_k1} "
            "different-fiber pairs empty at k=1"
        )


def test_criterion_11_scheme_validity():
    with criterion(11, 10.0) as crit:
        q = c.QSchedule((2, 2, 2))
        scheme = c.central_block_scheme(q)
        rng = np.random.default_rng(11)
        for trial in range(100):
            offset = int(rng.integers(0, q.n(3)))
            pair = bl.fiber_pair(q, (3000 + 2 * trial, 3001 + 2 * trial), offset=offset)
            planes = dict(enumerate(scheme.same_atom_planes(pair), start=1))
            assert not np.any(planes[2] & ~planes[1])
            assert not np.any(planes[3] & ~planes[2])
            masks = {k: c.unpack_times(p, pair.horizon) for k, p in planes.items()}
            pos = offset + np.arange(pair.horizon)
            for k in (1, 2, 3):
                window_ids = pos // q.n(k)
                for w in np.unique(window_ids):
                    segment = masks[k][window_ids == w]
                    assert segment.all() or not segment.any()
        crit.note("refinement + shift-window exact on 100 sampled fiber pairs")


def test_criterion_12_reproducibility(tmp_path):
    with criterion(12, 60.0) as crit:
        jobs = {
            "phi": ["phi", "--witness", "DC3", "--horizon", "16382"],
            "pipka": ["pipka", "--eta", "0.81", "--h", "1", "--card", "2"],
            "forge": ["forge", "--q", "2,2,2", "--dump", "params"],
            "classify": ["classify", "--seed", "3", "--horizon", "5000"],
            "count-ball": ["count-ball", "--n", "10", "--m", "2", "--eta", "0.5"],
        }
        for name, argv in jobs.items():
            a = tmp_path / f"{name}-a.csv"
            b = tmp_path / f"{name}-b.csv"
            assert cli_run(argv + ["--out", str(a)]) == 0
            assert cli_run(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"{name} artifact not reproducible"
        crit.note(f"{len(jobs)} artifact kinds byte-identical across re-runs")


@pytest.mark.parametrize("target, pk_plus", [("DC1half", True), ("DC2", False)])
def test_zero_entropy_pair_reads_measure_theoretic_plus(target, pk_plus):
    """PAPER.md's third result is a zero-entropy system with uniform
    measure-theoretic+ chaos. This reads one constructed pair of the
    marker-block system at q = 2,2,2, not the paper's "uniform" statement
    about a set of pairs: the run schedule of `witness_runs(target, 3000)`,
    counted in top-level blocks, pulled back through `word_from_free_words`
    from free words all 0 against all 1 on the disagreeing blocks. At
    tau_one = tau_zero = 0.25 the DC1half schedule is measure-theoretic+
    chaotic (pk, pk_plus, k0 = 1) and the DC2 schedule only
    measure-theoretic chaotic (pk without pk_plus). The product side, the
    free-word tracks under the aligned-window scheme, reads the same."""
    q = c.QSchedule((2, 2, 2))
    runs = c.witness_runs(target, 3000)
    blocks = sum(length for length, _ in runs)
    agree = runs_to_mask(runs, blocks)
    free_x = np.zeros((blocks, q.p(3)), dtype=np.int8)
    free_y = np.zeros((blocks, q.p(3)), dtype=np.int8)
    free_y[~agree] = 1
    pair = c.OrbitPair(*(bl.trajectory_from_word(bl.word_from_free_words(q, free))
                         for free in (free_x, free_y)))
    th = c.Thresholds(tau_one=0.25, tau_zero=0.25)
    scheme = c.central_block_scheme(q)
    verdict = c.classify_partition_pair(pair, scheme, th)
    assert (verdict.pk_scrambled, verdict.pk_plus, verdict.k0) == (True, pk_plus, 1)
    masks = [c.unpack_times(plane, pair.horizon) for plane in c.same_atom_series(pair, scheme)]
    assert (verdict.pk_scrambled, verdict.pk_plus, verdict.pk_minus) == (
        partition_verdict_direct(masks, th)
    )

    spec = c.FullShift(2, (0.5, 0.5))
    image = c.OrbitPair(*(c.Trajectory(spec, free.size, symbols=free.reshape(-1))
                          for free in (free_x, free_y)))
    image_scheme = aligned_window_scheme([q.p(k) for k in (1, 2, 3)])
    image_verdict = c.classify_partition_pair(image, image_scheme, th)
    assert (image_verdict.pk_scrambled, image_verdict.pk_plus) == (True, pk_plus)


def test_zz_report():
    print()
    for line in REPORT:
        print(line)
