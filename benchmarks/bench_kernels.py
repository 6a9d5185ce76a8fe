"""Benchmark the interval-map orbit loop, the exact eta-ball count, and the
per-pair distance series plus Phi profile of the symbolic metrics.

Run as a script from a checkout (no install needed):
    python benchmarks/bench_kernels.py
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chaoslab.density import phi_profile  # noqa: E402
from chaoslab.entropy import count_eta_ball  # noqa: E402
from chaoslab.systems import (  # noqa: E402
    FullShift,
    IntervalMap,
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

    print("\nsample_orbit, tent a=1.99 (sequential map iteration plus coding track)")
    tent = IntervalMap("tent", 1.99)
    for steps in (10_000, 100_000, 1_000_000):
        t, _ = timeit(sample_orbit, tent, steps, 1)
        print(f"  steps={steps:8d}: {t*1e3:8.2f} ms")

    print("\ndistance_series + phi_profile per pair (full 2-shift, default grid)")
    spec = FullShift(2, (0.5, 0.5))
    for horizon in (100_000, 1_000_000):
        pair = make_pair(spec, horizon, "independent", (1, 2))
        for metric in ("hamming-indicator", "cantor"):
            t_d, series = timeit(distance_series, pair, metric)
            t_p, _ = timeit(phi_profile, series)
            print(f"  N={horizon:8d} {metric:17s}: distance_series {t_d*1e3:7.2f} ms"
                  f"   phi_profile {t_p*1e3:7.2f} ms")


if __name__ == "__main__":
    main()
