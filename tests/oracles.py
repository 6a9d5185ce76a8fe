"""Independent oracles shared by the tests.

These deliberately avoid the library's estimator code paths: densities come
from integer run-length arithmetic at run boundaries or from one Fraction per
checkpoint per set, counting comes from direct per-block string comparison.
"""
from fractions import Fraction

import numpy as np

from chaoslab.density import DensityEstimate, IndexSet


def boundary_ratios(runs, horizon, want_agree=True):
    """count(kind, n)/n at every run boundary n <= horizon, by pure integer
    sums over the run-length schedule."""
    ratios = []
    total = 0
    agree_total = 0
    for length, agree in runs:
        length = min(length, horizon - total)
        if length <= 0:
            break
        total += length
        if agree:
            agree_total += length
        count = agree_total if want_agree else total - agree_total
        ratios.append((total, Fraction(count, total)))
    return ratios


def boundary_extrema(runs, horizon, burn_in, want_agree=True):
    """(max, min) of count/n over run boundaries at or beyond the burn-in."""
    ratios = [r for n, r in boundary_ratios(runs, horizon, want_agree) if n >= burn_in]
    return max(ratios), min(ratios)


def count_eta_ball_direct(a0: str, m: int, eta: float) -> int:
    """Direct per-block enumeration with string slices; quadratic and slow,
    usable up to n ~ 14."""
    n = len(a0)
    nwin = n - m + 1
    count = 0
    for v in range(1 << n):
        block = format(v, f"0{n}b")
        disagree = sum(1 for j in range(nwin) if block[j : j + m] != a0[j : j + m])
        if disagree < eta * nwin:
            count += 1
    return count


def plugin_entropy_direct(track, word_len, stride):
    """Plug-in word entropy via a Counter over explicit tuples."""
    from collections import Counter

    words = Counter()
    for start in range(0, len(track) - word_len + 1, stride):
        words[tuple(int(x) for x in track[start : start + word_len])] += 1
    total = sum(words.values())
    h = 0.0
    for cnt in words.values():
        p = cnt / total
        h -= p * np.log2(p)
    return h / word_len


def per_set_density(s, policy):
    """DensityEstimate of one IndexSet: a Fraction at every checkpoint, then
    max/min."""
    cps = policy.checkpoints(s.horizon)
    counts = np.searchsorted(s.times, np.asarray(cps, dtype=np.int64), side="right")
    ratios = [Fraction(int(c), int(n)) for c, n in zip(counts, cps)]
    return DensityEstimate(
        upper=max(ratios),
        lower=min(ratios),
        checkpoints=tuple(cps),
        burn_in=policy.resolve_burn_in(s.horizon),
        count_at_horizon=int(counts[-1]),
    )


def per_threshold_phi(values, grid, policy):
    """Phi profile estimates with one O(N) pass per threshold: the set
    {n : d_n < t} for each grid point t, through `per_set_density`."""
    values = np.asarray(values, dtype=np.float64)
    return tuple(per_set_density(IndexSet.from_mask(values < t), policy) for t in grid)


def cantor_values_direct(a, b):
    """d_n = 2^-j, j the agreement length from n (capped by the horizon),
    by a binary search over the disagreement positions for every time."""
    n = len(a)
    positions = np.flatnonzero(a != b)
    if positions.size == 0:
        j = n - np.arange(n)
    else:
        idx = np.searchsorted(positions, np.arange(n))
        nxt = np.where(idx < positions.size, positions[np.minimum(idx, positions.size - 1)], n)
        j = nxt - np.arange(n)
    return np.power(2.0, -j.astype(np.float64))


def pair_dump_direct(pair):
    """(header, rows) of a pair dump, one Python row per time: n, both
    symbols (blank without a symbol track) and, when there are reals, both
    reals."""
    header = ["n", "x_symbol", "y_symbol"]
    if pair.a.reals is not None:
        header += ["x_real", "y_real"]
    rows = []
    for n in range(pair.horizon):
        row = [n + 1]
        row.append(int(pair.a.symbols[n]) if pair.a.symbols is not None else "")
        row.append(int(pair.b.symbols[n]) if pair.b.symbols is not None else "")
        if pair.a.reals is not None:
            row.append(repr(float(pair.a.reals[n])))
            row.append(repr(float(pair.b.reals[n])))
        rows.append(row)
    return header, rows


def csv_text_direct(config, header, rows):
    """A CSV artifact's text with `str` applied to every cell, built as one
    string."""
    lines = config.header_lines()
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
