"""Benchmark the numba orbit kernels against the pure-Python fallbacks, the
exact eta-ball count, and the per-pair distance series plus Phi profile of
the symbolic metrics.

Run as a script from a checkout (no install needed):
    python benchmarks/bench_kernels.py
Select the package-wide backend with CHAOSLAB_BACKEND=numpy|numba|auto.
"""
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chaoslab import _kernels  # noqa: E402
from chaoslab.density import phi_profile  # noqa: E402
from chaoslab.entropy import count_eta_ball  # noqa: E402
from chaoslab.systems import FullShift, distance_series, make_pair  # noqa: E402


def timeit(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    print(f"numba available: {_kernels.tent_orbit_numba is not None}")
    print(f"package backend in use: {'numba' if _kernels.USING_NUMBA else 'numpy'}")

    print("\ncount_eta_ball (transfer-automaton DP, exact ints)")
    for n in (20, 200, 1024):
        t, count = timeit(count_eta_ball, "0" * n, 5, 0.5)
        print(f"  n={n:4d} m=5 eta=0.5: {t*1e3:8.2f} ms   count has {count.bit_length()} bits")

    print("\ntent_orbit (sequential map iteration)")
    for steps in (10_000, 100_000, 1_000_000):
        t_np, ref = timeit(_kernels.tent_orbit_numpy, 0.2345, 1.99, steps)
        line = f"  steps={steps:8d}: python-loop {t_np*1e3:8.2f} ms"
        if _kernels.tent_orbit_numba is not None:
            _kernels.tent_orbit_numba(0.2345, 1.99, steps)
            t_nb, out = timeit(_kernels.tent_orbit_numba, 0.2345, 1.99, steps)
            assert np.array_equal(ref, out)
            line += f"   numba {t_nb*1e3:8.2f} ms   speedup {t_np / t_nb:5.1f}x"
        print(line)

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
