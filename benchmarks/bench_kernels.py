"""Benchmark the full-shift sampler, the interval-map orbit loops (tent
and logistic) and the coding track built from a real track, the exact
eta-ball count, the per-pair distance series plus Phi profile of the
Hamming, Cantor and absolute metrics and the depth-3 cylinder verdict,
the time-set kernel on its own (1, 3 and 16 packed planes, and the 1,920
planes of a 16-trajectory Cantor scan) and its exact pick on the Fraction
path, the plug-in word entropy on both of its counting branches and at a
stride, the `pair` dump writer on its own and its real cells against `repr`, one small CLI call (first and later calls),
the `verify --suite pi-bijection` CLI call at q = 2,3,2, the traced
memory peak of a 16 x 1e5 tent/Cantor `scan`, and the time and traced
peak of `classify` at N = 1e6 for the tent/absolute and logistic/Cantor
reads.

Run as a script from a checkout (no install needed):
    python benchmarks/bench_kernels.py
"""
import contextlib
import os
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chaoslab.classify import Thresholds, classify_partition_pair, cylinder_scheme  # noqa: E402
from chaoslab.density import (  # noqa: E402
    _exact_extremes,
    checkpoint_grid,
    nested_density_estimates,
    phi_profile,
)
from chaoslab import cli  # noqa: E402
from chaoslab.entropy import (  # noqa: E402
    UndersampledWarning,
    count_eta_ball,
    empirical_cylinder_entropy,
)
from chaoslab.systems import (  # noqa: E402
    FullShift,
    IntervalMap,
    OrbitPair,
    coding_symbols,
    distance_series,
    make_pair,
    sample_orbit,
)


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    print("count_eta_ball (transfer-automaton DP, exact ints)")
    for n in (20, 200, 1024):
        t, count = timeit(count_eta_ball, "0" * n, 5, 0.5)
        print(f"  n={n:4d} m=5 eta=0.5: {t*1e3:8.2f} ms   count has {count.bit_length()} bits")

    print("\nsample_orbit (full shift, uniform weights, 1e6 symbols)")
    for arity in (2, 256):
        t, traj = timeit(sample_orbit, FullShift(arity, (1 / arity,) * arity), 1_000_000, 1)
        print(f"  arity={arity:3d}: {t*1e3:8.2f} ms   track {traj.symbols.nbytes / 1e6:.1f} MB"
              f" ({traj.symbols.dtype})")

    print("\nsample_orbit (sequential map iteration plus coding track)")
    for name, spec in (
        ("tent a=1.99", IntervalMap("tent", 1.99)),
        ("logistic r=4", IntervalMap("logistic", 4.0)),
    ):
        for steps in (10_000, 100_000, 1_000_000):
            t, _ = timeit(sample_orbit, spec, steps, 1)
            print(f"  {name:12s} steps={steps:8d}: {t*1e3:8.2f} ms")

    print("\ncoding_symbols alone, 1e6 reals of a tent a=1.99 orbit")
    reals = sample_orbit(IntervalMap("tent", 1.99), 1_000_000, 1).reals
    for depth in (1, 3):
        t, _ = timeit(coding_symbols, IntervalMap("tent", 1.99, depth), reals)
        print(f"  depth={depth}: {t*1e3:8.2f} ms")

    print("\nper pair, default grid: distance_series + phi_profile of each metric,"
          " and the depth-3 cylinder verdict (full 2-shift; tent a=1.99 for absolute)")
    for horizon in (100_000, 2**20):
        shift = make_pair(FullShift(2, (0.5, 0.5)), horizon, (1, 2))
        tent = make_pair(IntervalMap("tent", 1.99), horizon, (1, 2))
        for metric, pair in (("hamming-indicator", shift), ("cantor", shift), ("absolute", tent)):
            # a fresh pair each call, so the cached agreement plane is rebuilt
            t_d, series = timeit(lambda: distance_series(OrbitPair(pair.a, pair.b), metric))
            t_p, _ = timeit(phi_profile, series)
            print(f"  N={horizon:8d} {metric:17s}: distance_series {t_d*1e3:7.2f} ms"
                  f"   phi_profile {t_p*1e3:7.2f} ms")
        scheme, th = cylinder_scheme(3), Thresholds()
        t, _ = timeit(lambda: classify_partition_pair(OrbitPair(shift.a, shift.b), scheme, th))
        print(f"  N={horizon:8d} cylinder depth 3 : classify_partition_pair {t*1e3:7.2f} ms")

    print("\nnested_density_estimates alone (default checkpoint grid, random packed planes)")
    rng = np.random.default_rng(0)
    for horizon in (100_000, 2**20):
        cps = checkpoint_grid(horizon)
        # a Hamming profile counts 1 plane, a depth-3 partition 3, a Cantor
        # or absolute profile on the default grid 16
        for count in (1, 3, 16):
            planes = rng.integers(0, 2**64, (count, -(-horizon // 64)), dtype=np.uint64)
            if horizon % 64:
                planes[:, -1] &= np.uint64((1 << (horizon % 64)) - 1)
            t, _ = timeit(nested_density_estimates, planes, horizon, cps, repeat=7)
            print(f"  N={horizon:8d} ({len(cps)} checkpoints) planes={count:2d}: {t*1e3:6.2f} ms")
    # the 120 pairs x 16 Cantor planes of a 16-trajectory scan, in one call
    cps = checkpoint_grid(100_000)
    planes = rng.integers(0, 2**64, (1920, -(-100_000 // 64)), dtype=np.uint64)
    planes[:, -1] &= np.uint64((1 << (100_000 % 64)) - 1)
    t, _ = timeit(nested_density_estimates, planes, 100_000, cps)
    print(f"  N=  100000 ({len(cps)} checkpoints) planes=1920: {t*1e3:6.2f} ms")
    # above nmax**2 * max ratio = 2**51 every ratio is a Fraction: synthetic
    # counts of 17 levels on the N = 1e8 grid, so no 1e8 sample is built
    cps = checkpoint_grid(100_000_000)
    ns = np.asarray(cps, dtype=np.int64)
    counts = ns[:, None] * np.arange(1, 18) // 18 + rng.integers(0, 1000, (ns.size, 17))
    t, _ = timeit(_exact_extremes, counts, cps)
    print(f"  _exact_extremes alone, N=1e8 grid ({len(cps)} checkpoints x 17 levels,"
          f" Fraction path): {t*1e3:7.2f} ms")

    print("\nempirical_cylinder_entropy, N=1e6 fair bits (2^12 words: count table;"
          " 2^24 and 2^62: sort)")
    bits = rng.integers(0, 2, 1_000_000)
    for word_len, stride in ((12, 1), (24, 1), (62, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndersampledWarning)  # 2^24 words
            t, _ = timeit(empirical_cylinder_entropy, bits, word_len, stride)
        print(f"  word_len={word_len:2d} stride={stride}: {t*1e3:8.2f} ms")

    print("\npair dump writer alone (pair sampled beforehand, written to a temp directory)")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "pair.csv"
        for name, spec, horizon in (
            ("full shift", FullShift(2, (0.5, 0.5)), 1_000_000),
            ("tent a=1.99", IntervalMap("tent", 1.99), 250_000),
        ):
            pair = make_pair(spec, horizon, (1, 2))
            t, _ = timeit(lambda: cli.atomic_write(out, cli._pair_chunks(["# pair"], pair)))
            mb = out.stat().st_size / 1e6
            print(f"  {name:11s} N={horizon:8d}: {t*1e3:8.2f} ms   {mb:6.1f} MB"
                  f"   {mb / t:6.1f} MB/s")

    rows = cli.CSV_BLOCK_ROWS
    tent = make_pair(IntervalMap("tent", 1.99), rows, (1, 2))
    block = np.stack([tent.a.reals, tent.b.reals], axis=1)

    def real_cells():
        # the shortest digits of every cell, written as bytes behind "0."
        digits, places, _ = cli._shortest_decimals(block)
        cells = np.zeros((rows, 2, 2 + int(places.max())), np.uint8)
        cli._decimal_cells(cells[..., 2:], digits, places)
        return cells

    t_fast, _ = timeit(real_cells)
    t_repr, _ = timeit(lambda: list(map(repr, block.ravel().tolist())))
    print(f"  real cells of one {rows}-row tent block: {t_fast*1e3:7.2f} ms"
          f"   map(repr) {t_repr*1e3:7.2f} ms")

    print("\ncli.run count-ball --n 10 --m 3 --eta 0.5 (the parser is built on the"
          " first call)")
    argv = ["count-ball", "--n", "10", "--m", "3", "--eta", "0.5", "--out", "ball.csv"]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            times = []
            for _ in range(21):
                t0 = time.perf_counter()
                if cli.run(argv) != 0:
                    raise SystemExit("count-ball failed")
                times.append(time.perf_counter() - t0)
        finally:
            os.chdir(here)
    print(f"  first call {times[0]*1e3:7.2f} ms   mean of the next 20"
          f" {sum(times[1:]) / 20 * 1e3:7.2f} ms")

    print("\ncli.run verify --suite pi-bijection --q 2,3,2 (4096 blocks of N_3 = 48)")
    argv = ["verify", "--suite", "pi-bijection", "--q", "2,3,2"]
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if cli.run(argv) != 0:
                raise SystemExit("pi-bijection failed")
        times.append(time.perf_counter() - t0)
    print(f"  median of 21 calls {sorted(times)[10]*1e3:7.2f} ms")

    print("\ncli.run scan --count 16 --horizon 100000 --system tent --param 1.99"
          " --metric cantor, traced by tracemalloc")
    argv = ["scan", "--count", "16", "--horizon", "100000", "--system", "tent",
            "--param", "1.99", "--metric", "cantor", "--out", "clique.csv"]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            if cli.run(argv) != 0:
                raise SystemExit("scan failed")
            t = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            os.chdir(here)
    print(f"  peak {peak / 1e6:6.2f} MB (16 real tracks would be {16 * 100_000 * 8 / 1e6:.1f} MB)"
          f"   {t*1e3:7.1f} ms under tracing")

    print("\ncli.run classify --horizon 1000000 on the two interval-map reads,"
          " traced by tracemalloc")
    for system, metric in (("tent --param 1.99", "absolute"), ("logistic --param 4", "cantor")):
        argv = (f"classify --system {system} --metric {metric} --horizon 1000000"
                " --out verdict.csv").split()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                t, _ = timeit(cli.run, argv)
                tracemalloc.start()
                try:
                    if cli.run(argv) != 0:
                        raise SystemExit("classify failed")
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            finally:
                os.chdir(here)
        print(f"  {system:18s} {metric:9s}: {t*1e3:7.1f} ms   peak {peak / 1e6:6.2f} MB"
              f" (two real tracks would be {2 * 1_000_000 * 8 / 1e6:.1f} MB)")


if __name__ == "__main__":
    main()
