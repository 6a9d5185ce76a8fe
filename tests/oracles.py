"""Independent oracles shared by the tests.

These deliberately avoid the library's estimator code paths: densities come
from integer run-length arithmetic at run boundaries or from one Fraction per
checkpoint per set, symbolic distances come as N floats built per time,
counting comes from direct per-block string comparison or from enumerating
all 2^n difference masks, marker blocks come from running the block
recursion on every row, same-atom masks come from comparing per-time
atom labels, plug-in word entropy comes from a Counter over word tuples
or from int64 word codes sorted by `np.unique` (or the estimator's chunk
codes, concatenated and sorted by it), interval-map orbits come from a
list-appending loop with Python-int symbol packing, and interval-map pairs
from two whole-orbit `sample_orbit` draws,
full-shift symbols come from `Generator.choice`, witness-schedule masks
come from one slice assignment per run, and their limit densities come
from the fixed point of each schedule's run-end recursion.
`aligned_window_scheme` is the image-side partition scheme the transfer
tests read the free-word tracks under.
"""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from chaoslab.classify import PartitionScheme, classify_metric_pair, scan_scrambled_set
from chaoslab.density import (
    THRESHOLD_GRID,
    DensityEstimate,
    PhiProfile,
    checkpoint_grid,
    pack_times,
)
from chaoslab.entropy import WINDOW_CHUNK, _window_codes
from chaoslab.systems import OrbitPair, sample_orbit


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


def runs_to_mask(runs, horizon):
    """The agreement mask of a run schedule over times 1..horizon, one slice
    assignment per run."""
    mask = np.zeros(sum(length for length, _ in runs), dtype=bool)
    pos = 0
    for length, agree in runs:
        if agree:
            mask[pos : pos + length] = True
        pos += length
    return mask[:horizon]


def boundary_extrema(runs, horizon, burn_in, want_agree=True):
    """(max, min) of count/n over run boundaries at or beyond the burn-in."""
    ratios = [r for n, r in boundary_ratios(runs, horizon, want_agree) if n >= burn_in]
    return max(ratios), min(ratios)


# Each witness schedule in the limit of long schedules: an agreeing run of
# g times the total before it, then a disagreeing run of rho * g times the
# total before that one. DC1/DC1half: every run is 5 times the total before
# it. DC2: 4T agreeing after T, then floor(4T/3) disagreeing after 5T, so
# rho * g = 4/15 once the floor is negligible. DC3: a run of 2^(i+1) after
# 2^(i+1) - 2. LY: runs grow by 1 over a quadratic total, so g -> 0 with
# consecutive runs of ratio 1.
WITNESS_GROWTH = {
    "DC1": (Fraction(5), Fraction(1)),
    "DC1half": (Fraction(5), Fraction(1)),
    "DC2": (Fraction(4), Fraction(1, 15)),
    "DC3": (Fraction(1), Fraction(1)),
    "LY": (Fraction(0), Fraction(1)),
}


def witness_limits(target):
    """Exact (limsup, liminf) of the agreement ratio count/n of a witness
    schedule, solved from the fixed point of its run-end recursion.

    The ratio is monotone inside a run, so its extremes lie at run ends. An
    agreeing run of g T after T times maps the ratio r at its start to
    u = (r + g) / (1 + g); the disagreeing run after it, of rho g (1 + g) T,
    maps u to u / (1 + rho g). The fixed point l = (l + g) / ((1 + g)(1 +
    rho g)) is l = 1 / (1 + rho + rho g), divided through by g, which also
    gives the limit g -> 0 (LY); then u = l (1 + rho g).
    """
    g, rho = WITNESS_GROWTH[target]
    liminf = 1 / (1 + rho + rho * g)
    return liminf * (1 + rho * g), liminf


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


def window_mismatch_counts_direct(n: int, m: int) -> np.ndarray:
    """For every difference mask d in [0, 2^n): number of the n-m+1 length-m
    windows of d containing a set bit. Vectorized over all masks."""
    masks = np.arange(1 << n, dtype=np.int64)
    window = np.int64((1 << m) - 1)
    counts = np.zeros(1 << n, dtype=np.int64)
    for j in range(n - m + 1):
        counts += ((masks >> j) & window) != 0
    return counts


def count_eta_ball_enumerated(n: int, m: int, eta) -> int:
    """Eta-ball count from the histogram of all 2^n difference masks, with
    the strict threshold c < eta*(n-m+1) in exact rationals."""
    threshold = Fraction(eta) * (n - m + 1)
    histogram = np.bincount(window_mismatch_counts_direct(n, m))
    return sum(int(h) for c, h in enumerate(histogram) if c < threshold)


def encode_block_recursive(q, k, bits):
    """A C_k member from its p_k free bits by the block recursion: C_1 rows
    are ww, then q_level consecutive rows make a B row, which is doubled."""
    rows = np.asarray(bits, dtype=np.int8).reshape(-1, q[0])
    rows = np.concatenate([rows, rows], axis=1)
    for level in range(2, k + 1):
        rows = rows.reshape(rows.shape[0] // q[level - 1], -1)
        rows = np.concatenate([rows, rows], axis=1)
    return rows[0]


def enumerate_family_recursive(q, k):
    """All C_k members, one recursion per pi-word in big-endian order."""
    pk = int(np.prod(q[:k]))
    return np.array(
        [encode_block_recursive(q, k, [(v >> (pk - 1 - i)) & 1 for i in range(pk)])
         for v in range(2**pk)],
        dtype=np.int8,
    )


def free_classes_recursive(q, k):
    """Per free bit, in bit order, its class of positions with the free
    position first: level-1 class {f, f + q_1}; a level's class is an inner
    class shifted into component i, plus its copy in the second half."""
    if k == 1:
        return [[f, f + q[0]] for f in range(q[0])]
    inner = free_classes_recursive(q, k - 1)
    n_prev = int(np.prod(q[: k - 1])) * 2 ** (k - 1)
    half = n_prev * q[k - 1]
    out = []
    for i in range(q[k - 1]):
        for cls in inner:
            shifted = [i * n_prev + x for x in cls]
            out.append(shifted + [x + half for x in shifted])
    return out


def project_position_recursive(q, k, j):
    """Free bit copied at position j: drop the repetition-copy index, keep
    the component index, recurse."""
    if k == 1:
        return j % q[0]
    n_prev = int(np.prod(q[: k - 1])) * 2 ** (k - 1)
    j %= n_prev * q[k - 1]
    i, rest = divmod(j, n_prev)
    return i * int(np.prod(q[: k - 1])) + project_position_recursive(q, k - 1, rest)


def full_shift_direct(spec, horizon, seed):
    """Full-shift symbols drawn by Generator.choice, which finds each one by
    searchsorted on the weights' cdf."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.choice(spec.arity, size=horizon, p=np.asarray(spec.probs))


def interval_orbit_direct(kind, a, x0, n, depth):
    """Tent or logistic orbit as a plain Python list, with the tent branch
    chosen by `x < 1.0 - x`, then the coding track packed depth by depth
    with `*2 +` in Python ints: (reals over n steps, n int64 symbols)."""
    xs = []
    x = float(x0)
    for _ in range(n + depth - 1):
        xs.append(x)
        if kind == "tent":
            x = a * (x if x < 1.0 - x else 1.0 - x)
        else:
            x = a * x * (1.0 - x)
    bits = [int(v >= 0.5) for v in xs]
    symbols = []
    for t in range(n):
        sym = 0
        for j in range(depth):
            sym = sym * 2 + bits[t + j]
        symbols.append(sym)
    return np.array(xs[:n], dtype=np.float64), np.array(symbols, dtype=np.int64)


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


def plugin_entropy_unique(track, word_len, stride=1):
    """Plug-in word entropy by int64 dot-product word codes and a sorting
    `np.unique`: the estimator's arithmetic before codes were counted by
    table, so its results must agree bit for bit."""
    sym = np.asarray(track, dtype=np.int64)
    alphabet = max(int(sym.max(initial=0)) + 1, 2)
    windows = np.lib.stride_tricks.sliding_window_view(sym, word_len)[::stride]
    weights = alphabet ** np.arange(word_len - 1, -1, -1, dtype=np.int64)
    values = windows @ weights
    _, counts = np.unique(values, return_counts=True)
    p = counts / values.size
    return float(-(p * np.log2(p)).sum() / word_len)


def cylinder_entropy_concatenated(track, word_len, stride=1):
    """The plug-in word entropy as `empirical_cylinder_entropy` counted it
    when its table did not fit the sample: every chunk's window codes kept
    in a list, concatenated and counted by a sorting `np.unique`."""
    sym = np.asarray(track)
    alphabet = max(int(sym.max()) + 1, 2)
    windows = (sym.size - word_len) // stride + 1
    dtype, chunk = np.min_scalar_type(alphabet**word_len - 1), WINDOW_CHUNK
    chunks = [
        _window_codes(
            sym[j * stride : (min(j + chunk, windows) - 1) * stride + word_len].astype(dtype),
            word_len, stride, alphabet,
        )
        for j in range(0, windows, chunk)
    ]
    _, counts = np.unique(np.concatenate(chunks), return_counts=True)
    p = counts / windows
    return float(-(p * np.log2(p)).sum() / word_len)


def interval_pair_whole(spec, horizon, seeds):
    """An interval-map pair as two whole `sample_orbit` draws, each holding
    its real track: the tracks a pair read in blocks must reproduce."""
    return OrbitPair(*(sample_orbit(spec, horizon, seed) for seed in seeds))


def per_set_density(mask, checkpoints):
    """DensityEstimate of the time set masked by `mask` at the given
    checkpoints: its sorted times, a count at every checkpoint by binary
    search, a Fraction per checkpoint, then max/min."""
    times = np.flatnonzero(mask) + 1
    cps = tuple(int(n) for n in checkpoints)
    counts = np.searchsorted(times, np.asarray(cps, dtype=np.int64), side="right")
    ratios = [Fraction(int(c), n) for c, n in zip(counts, cps)]
    return DensityEstimate(
        upper=max(ratios),
        lower=min(ratios),
        checkpoints=cps,
        count_at_horizon=int(counts[-1]),
    )


def partition_verdict_direct(masks, th):
    """(pk, pk_plus, pk_minus) by the rules as stated, on `per_set_density`
    of each depth's same-atom mask and of its complement, the different-atom
    set, over the checkpoint grid from th.burn_in, with every threshold the
    decimal it prints as."""
    tau_one, tau_zero, eta_min, gap = (
        Fraction(repr(x)) for x in (th.tau_one, th.tau_zero, th.eta_min, th.gap)
    )
    cps = checkpoint_grid(masks[0].size, th.burn_in)
    same = [per_set_density(mask, cps) for mask in masks]
    diff_upper = [per_set_density(~mask, cps).upper for mask in masks]
    pk = all(e.upper >= 1 - tau_one for e in same) and any(u >= eta_min for u in diff_upper)
    pk_plus = pk and any(u >= 1 - tau_zero for u in diff_upper)
    pk_minus = any(e.upper - e.lower >= gap for e in same)
    return pk, pk_plus, pk_minus


def metric_verdict_direct(profile, th):
    """(flags, separation threshold) of a Phi profile by the five metric
    rules as stated, on the estimates' Fractions, with every threshold the
    decimal it prints as. Grid point j reads the set {n : d_n < t_j}; its
    complement, the separation set, has upper density 1 - lower."""
    tau_one, tau_zero, eta_min, gap = (
        Fraction(repr(x)) for x in (th.tau_one, th.tau_zero, th.eta_min, th.gap)
    )
    ests = profile.estimates
    n, count = profile.horizon, ests[0].count_at_horizon
    floor = max(10, math.isqrt(n))
    li_yorke = count >= floor and n - count >= floor
    gapped = [e.upper - e.lower >= gap for e in ests]
    dc3 = any(gapped[j] and gapped[j + 1] for j in range(len(ests) - 1))
    dc2 = ests[0].upper >= 1 - tau_one and 1 - ests[0].lower >= eta_min and dc3 and li_yorke
    dc1half = dc2 and ests[0].lower <= tau_zero
    dc1 = dc1half and any(e.lower <= tau_zero for e in ests)
    separating = [float(t) for t, e in zip(profile.thresholds, ests) if 1 - e.lower >= eta_min]
    flags = {"li_yorke": li_yorke, "dc1": dc1, "dc1half": dc1half, "dc2": dc2, "dc3": dc3}
    return flags, (separating[-1] if separating else None)


def per_threshold_phi(values, checkpoints):
    """Phi profile estimates with one O(N) pass per threshold: the set
    {n : d_n < t} for each point t of THRESHOLD_GRID, through
    `per_set_density`."""
    values = np.asarray(values, dtype=np.float64)
    return tuple(per_set_density(values < t, checkpoints) for t in THRESHOLD_GRID)


def cantor_values_direct(a, b):
    """d_n = 2^-j, j the agreement length from n, by a binary search over
    the disagreement positions for every time. Where no disagreement
    follows n, j = inf and d_n = 0.0, as `cylinder_label` cut at the
    horizon puts both tracks in one atom at every depth."""
    n = len(a)
    positions = np.flatnonzero(a != b)
    idx = np.searchsorted(positions, np.arange(n))
    nxt = np.append(positions, np.inf)[idx]
    return np.power(2.0, -(nxt - np.arange(n)))


def float_distance_values(pair, metric):
    """N float distances of a symbolic metric, built per time: the mismatch
    indicator, or `cantor_values_direct`."""
    a, b = pair.a.symbols, pair.b.symbols
    if metric == "hamming-indicator":
        return (a != b).astype(np.float64)
    if metric == "cantor":
        return cantor_values_direct(a, b)
    raise ValueError(f"no float oracle for metric {metric!r}")


def phi_profile_float_path(pair, metric, burn_in=None):
    """Phi profile from the pair's N float distances over the checkpoint
    grid from the burn-in, one `per_set_density` pass per threshold
    (`per_threshold_phi`)."""
    values = float_distance_values(pair, metric)
    cps = checkpoint_grid(values.size, burn_in)
    return PhiProfile(estimates=per_threshold_phi(values, cps), horizon=values.size)


def scan_clique_float_path(trajectories, metric, th, target):
    """Scrambled clique of `scan`, with each pair read off its float-path
    Phi profile, over a dict of every pair built up front."""

    def scrambled(pair):
        profile = phi_profile_float_path(pair, metric, th.burn_in)
        return classify_metric_pair(profile, th).flags[target]

    indexed = enumerate(trajectories)
    pairs = {(i, j): OrbitPair(a, b) for (i, a), (j, b) in combinations(indexed, 2)}
    return scan_scrambled_set(pairs, scrambled)


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


def csv_text_direct(lines, header, rows):
    """A CSV artifact's text after the `#` lines, with `str` applied to every
    cell, built as one string."""
    lines = [*lines, ",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def cylinder_label(k, traj, n):
    """Depth-k cylinder atom at time n: the symbol word at [n, n+k), cut at
    the horizon, so two tracks that agree from n to the horizon share an
    atom at every depth, as `cantor_values_direct` gives them d_n = 0.0."""
    return traj.symbols[n : min(n + k, traj.horizon)].tobytes()


def central_block_label(schedule):
    """Labelling (k, trajectory, n) -> (position of n inside its enclosing
    k-block, content of that block), read off the trajectory's TwoRowWord."""

    def label(k, traj, n):
        word = traj.source
        nk = schedule.n(k)
        pos = word.offset + n
        start = pos - pos % nk
        return (pos % nk, word.binary[start : start + nk].tobytes())

    return label


def aligned_window_label(window_lengths):
    """Labelling (k, trajectory, n) -> (phase, content) of the aligned
    window of length L_k holding n, the trailing window cut at the
    horizon."""

    def label(k, traj, n):
        lk = window_lengths[k - 1]
        start = n - n % lk
        return (n % lk, traj.symbols[start : min(start + lk, traj.horizon)].tobytes())

    return label


def aligned_window_scheme(window_lengths):
    """The depth-k atom at time n is (phase, content) of its enclosing
    aligned window of length L_k, the trailing window cut at the horizon;
    L_k must divide L_{k+1}. Works on plain symbol tracks (offset 0). This is
    the image-side counterpart of the central-block scheme; its planes are
    checked against `aligned_window_label`."""
    lengths = tuple(int(x) for x in window_lengths)
    assert all(b % a == 0 for a, b in zip(lengths, lengths[1:])), lengths

    def same_atom_planes(pair):
        a, b = pair.a.symbols, pair.b.symbols
        planes = np.empty((len(lengths), -(-pair.horizon // 64)), dtype=np.uint64)
        for plane, lk in zip(planes, lengths):
            full = (pair.horizon // lk) * lk
            eq = np.all(a[:full].reshape(-1, lk) == b[:full].reshape(-1, lk), axis=1)
            out = np.empty(pair.horizon, dtype=bool)
            out[:full] = np.repeat(eq, lk)
            out[full:] = np.array_equal(a[full:], b[full:])
            plane[:] = pack_times(out)
        return planes

    return PartitionScheme(len(lengths), same_atom_planes, "aligned-window")


def same_label_mask(label, pair, k):
    """Same-atom mask of a scheme by comparing both trajectories' labels at
    every time."""
    return np.array(
        [label(k, pair.a, n) == label(k, pair.b, n) for n in range(pair.horizon)], dtype=bool
    )
