"""Entropy estimation and the combinatorial counting machinery: binary
entropy, block-count entropy rates, plug-in cylinder-word entropy, the
parameter-inequality solver and the exact eta-ball count with its
closed-form bound.

Logarithms are base 2 throughout (bits).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .blocks import _bits
from .errors import ValidationError

DEFAULT_EPS_GRID = (0.005, 0.01, 0.02, 0.05)


def binary_entropy(p: float) -> float:
    """H(p, 1-p) = -p log2 p - (1-p) log2(1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@dataclass(frozen=True)
class EntropyReport:
    """Per-level block-count entropy rates log2(count)/length; exact
    Fractions whenever the count is a power of two."""

    levels: tuple[tuple[int, int], ...]  # (count, length)
    rates: tuple[Fraction | float, ...]


def block_count_entropy(families: Iterable[tuple[int, int]]) -> EntropyReport:
    levels = []
    rates: list[Fraction | float] = []
    for count, length in families:
        count, length = int(count), int(length)
        if count < 1 or length < 1:
            raise ValidationError("counts and lengths must be >= 1")
        levels.append((count, length))
        if count & (count - 1) == 0:  # power of two: log2 is exact
            rates.append(Fraction(count.bit_length() - 1, length))
        else:
            rates.append(math.log2(count) / length)
    return EntropyReport(levels=tuple(levels), rates=tuple(rates))


class UndersampledWarning(UserWarning):
    pass


def _strided_codes(sym: np.ndarray, length: int, stride: int, base: int) -> np.ndarray:
    """Base-`base` codes of the `length` symbols from every multiple of the
    stride, by Horner's rule over the columns of the strided windows."""
    columns = np.lib.stride_tricks.sliding_window_view(sym, length)[::stride].T
    codes = columns[0]
    for column in columns[1:]:
        codes = codes * base + column
    return codes


# Windows are coded and counted this many at a time, so that no N-length
# array of codes, or copy of the track, is held (read at call time)
WINDOW_CHUNK = 1 << 16


def _window_codes(sym: np.ndarray, word_len: int, stride: int, alphabet: int) -> np.ndarray:
    """Base-`alphabet` codes of the length-`word_len` words of `sym` (already
    in the code dtype) read at every multiple of the stride, one per window
    that fits.

    With b = min(stride, l), a word is q = l // b blocks of b symbols, coded
    as digits base alphabet^b, then r = l % b symbols. The blocks are joined
    by doubling: read q's binary digits after the leading 1; each one joins
    two codes k digits apart into one of 2k digits, and a digit 1 then
    appends one digit, so about 2 log2(q) passes join them. No partial code
    exceeds the full one, so none overflows the dtype.
    """
    block = min(stride, word_len)
    q, r = divmod(word_len, block)
    digits = _strided_codes(sym, block, stride, alphabet)
    base, codes, k = alphabet**block, digits, 1
    for bit in bin(q)[3:]:
        codes = codes[:-k] * base**k + codes[k:]
        k *= 2
        if bit == "1":
            codes = codes[:-1] * base + digits[k:]
            k += 1
    codes = codes[: (sym.size - word_len) // stride + 1]
    if r:
        tail = _strided_codes(sym[q * stride :], r, stride, alphabet)
        codes = codes * alphabet**r + tail[: codes.size]
    return codes


def empirical_cylinder_entropy(track: Sequence[int], word_len: int, stride: int = 1) -> float:
    """Plug-in entropy rate H_l/l of the empirical distribution of length-l
    words read at the given stride (1 = overlapping windows).

    Symbols must be integers >= 0, the alphabet is max(largest symbol + 1,
    2), and the alphabet^l word codes must fit in int64 (alphabet^l <= 2^63);
    each failure raises a ValidationError.
    Horizons below 100 * alphabet^l undersample the word distribution; that
    raises an UndersampledWarning, not an error.

    The windows are coded WINDOW_CHUNK at a time by `_window_codes`, from
    their slice of the track cast to the smallest dtype that holds
    alphabet^l - 1. When that count table fits the sample, each chunk's
    codes are added into one int64 table by np.bincount, so memory beyond
    the track and the table stays bounded by the chunk. Otherwise the
    chunks fill one array of every window's code, which is sorted in place
    and counted by its runs of equal codes.
    """
    sym = np.asarray(track)
    if word_len < 1:
        raise ValidationError("word length must be >= 1")
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    if sym.ndim != 1:
        raise ValidationError("track must be 1-d")
    if sym.size < word_len:
        raise ValidationError("track shorter than one word")
    # the symbols are checked in their own dtype, before the cast to the
    # code dtype could truncate or wrap them
    kind = sym.dtype.kind
    if kind not in "biuf" or (
        kind == "f" and not np.all(np.isfinite(sym) & (sym == np.floor(sym)))
    ):
        raise ValidationError(f"symbols must be integers, got dtype {sym.dtype}")
    lo, hi = int(sym.min()), int(sym.max())
    if lo < 0:
        raise ValidationError(f"symbols must be >= 0, got {lo}")
    alphabet = max(hi + 1, 2)
    table = alphabet**word_len
    if table > 2**63:
        raise ValidationError(
            f"{alphabet}^{word_len} word codes do not fit in int64; shorten the word"
        )
    if sym.size < 100 * table:
        warnings.warn(
            f"horizon {sym.size} undersamples {alphabet}^{word_len} words",
            UndersampledWarning,
            stacklevel=2,
        )
    windows = (sym.size - word_len) // stride + 1
    dtype, chunk = np.min_scalar_type(table - 1), WINDOW_CHUNK
    chunks = (
        _window_codes(
            sym[j * stride : (min(j + chunk, windows) - 1) * stride + word_len].astype(
                dtype, copy=False
            ),
            word_len, stride, alphabet,
        )
        for j in range(0, windows, chunk)
    )
    # both give the counts of the words seen in ascending code order
    if table <= windows:  # the count table fits the sample: no sort
        counts = np.zeros(table, np.int64)
        for codes in chunks:
            counts += np.bincount(codes, minlength=table)
        counts = counts[counts > 0]
    else:
        codes, filled = np.empty(windows, dtype), 0
        for part in chunks:
            codes[filled : filled + part.size] = part
            filled += part.size
        codes.sort()
        last = np.ones(windows, bool)  # the last window of each run of equal codes
        np.not_equal(codes[1:], codes[:-1], out=last[:-1])
        del codes
        counts = np.diff(np.flatnonzero(last), prepend=-1)
    p = counts / windows
    return float(-(p * np.log2(p)).sum() / word_len)


@dataclass(frozen=True)
class PipkaParams:
    """Solution of the separation-parameter inequality
    2 H(sqrt(eta), 1-sqrt(eta))/m + eps (3 #P + 1) < (1 - sqrt(eta)) h
    with eps < 1 - sqrt(eta): smallest m, then largest feasible grid eps.
    The margin is the right side minus the left, as floats; (m, eps) is
    feasible exactly when it is > 0."""

    eta: float
    h: float
    card_p: int
    m: int | None = None
    eps: float | None = None
    margin: float | None = None

    @property
    def feasible(self) -> bool:
        """Whether some (m, eps) satisfies the inequality."""
        return self.m is not None


def _smallest_m(feasible) -> int | None:
    """The smallest m >= 1 with feasible(m), for a predicate that stays true
    once true: doubling brackets it and bisection pins it (near 1e153, m and
    m + 1 give the same quotient, so m cannot step by one). None if m would
    leave the float range, or if even m = inf is not feasible."""
    if not feasible(math.inf):
        return None
    high = 1
    while not feasible(high):
        if high >= 2**1023:
            return None
        high *= 2
    low = high // 2
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if feasible(mid) else (mid, high)
    return high


def _check_window(n: int, m: int) -> None:
    """The window domain `count_eta_ball` and `eta_ball_bound` share:
    windows of length m inside a block of length n."""
    if not 1 <= m <= n:
        raise ValidationError("need 1 <= m <= n")


def _check_bound_inputs(h: float, card_p: int, *positive: tuple[str, Sequence[float]]) -> None:
    """The domain `solve_pipka` and `eta_ball_bound` share: h finite and
    >= 0, a partition of at least two atoms, and each value of every named
    group in `positive` (the eps values, delta) finite and > 0."""
    if not (math.isfinite(h) and h >= 0):
        raise ValidationError("h must be finite and >= 0")
    if card_p < 2:
        raise ValidationError("partition cardinality must be >= 2")
    for name, values in positive:
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"{name} must be finite")
        if not all(v > 0 for v in values):
            raise ValidationError(f"{name} must be > 0")


def solve_pipka(
    eta: float,
    h: float,
    card_p: int,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
) -> PipkaParams:
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0,1)")
    _check_bound_inputs(h, card_p, ("eps grid values", eps_grid))
    if not eps_grid:
        raise ValidationError("eps grid must be nonempty")
    root = math.sqrt(eta)
    rhs = (1 - root) * h
    two_h = 2 * binary_entropy(root)

    def margin(m: float, eps: float) -> float:
        return rhs - (two_h / m + eps * (3 * card_p + 1))

    usable = [e for e in eps_grid if e < 1 - root]
    m = _smallest_m(lambda m: any(margin(m, e) > 0 for e in usable))
    if m is None:
        return PipkaParams(eta=eta, h=h, card_p=card_p)
    eps = max(e for e in usable if margin(m, e) > 0)
    return PipkaParams(eta=eta, h=h, card_p=card_p, m=m, eps=eps, margin=margin(m, eps))


def count_eta_ball(
    a0: Sequence[int] | str | np.ndarray, m: int, eta: float | Fraction
) -> int:
    """Exact count, over all 2^n binary blocks A, of those whose fraction of
    disagreeing length-m windows against a0 (all n-m+1 start positions; a
    window disagrees if it differs anywhere) is strictly below eta.

    The count is invariant under XOR with a0, so it runs over difference
    masks, which a transfer automaton reads left to right: its state is the
    gap since the last set bit, capped at m, and the window ending at
    position i >= m-1 disagrees exactly when that gap is below m. Carrying
    one histogram of disagreeing-window counts per state, as Python ints,
    costs O(n m (n-m+1)) additions instead of 2^n masks. The strict
    threshold is evaluated in exact rational arithmetic (pass a Fraction
    for eta values floats cannot represent).
    """
    if not isinstance(eta, (int, Fraction)) and not math.isfinite(eta):
        raise ValidationError(f"eta must be finite, got {eta!r}")
    if isinstance(a0, str):
        if not set(a0) <= {"0", "1"}:
            raise ValidationError("block string must be over 0/1")
        a0 = [int(c) for c in a0]
    if np.ndim(a0) != 1 or len(a0) == 0:
        raise ValidationError("block must be a nonempty 1-d bit sequence")
    n = _bits(a0, message="block entries must be 0/1").size
    _check_window(n, m)
    nwin = n - m + 1
    # c < eta*nwin  <=>  c <= ceil(eta*nwin) - 1, exactly
    threshold = Fraction(eta) * nwin
    cutoff = -((-threshold.numerator) // threshold.denominator) - 1
    if cutoff < 0:
        return 0
    # rows[g, c]: masks of the prefix read so far whose last set bit lies g
    # positions back (g = m: none of the last m), with c disagreeing windows;
    # counts never fall, so columns beyond the cutoff are dropped
    rows = np.zeros((m + 1, min(cutoff, nwin) + 1), dtype=object)
    rows[m, 0] = 1
    for i in range(n):
        reset = rows.sum(axis=0)  # bit i set: the gap becomes 0
        rows[m] += rows[m - 1]  # bit i clear: every gap grows, capped at m
        rows[1:m] = rows[: m - 1]
        rows[0] = reset
        if i >= m - 1:  # the window ending at i disagrees iff the gap < m
            rows[:m, 1:] = rows[:m, :-1]
            rows[:m, 0] = 0
    return int(rows.sum())


@dataclass(frozen=True)
class BallBound:
    """Closed-form counting bound 2^{n E} with
    E = 2 H(sqrt(eta))/m + log2(m)/n + eps(3 #P + 1) + h sqrt(eta),
    compared against the target 2^{n (h - 2 delta)}."""

    log2_value: float
    log2_target: float

    @property
    def value(self) -> float:
        """2^log2_value, or inf once that leaves the float range."""
        try:
            return 2.0**self.log2_value
        except OverflowError:
            return math.inf

    @property
    def flag(self) -> bool:
        return self.log2_value < self.log2_target


def eta_ball_bound(
    n: int, m: int, eta: float, eps: float, h: float, card_p: int, delta: float
) -> BallBound:
    _check_window(n, m)
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0,1)")
    root = math.sqrt(eta)
    if eps >= 1 - root:
        raise ValidationError("need eps < 1 - sqrt(eta)")
    _check_bound_inputs(h, card_p, ("eps", (eps,)), ("delta", (delta,)))
    exponent = (
        2 * binary_entropy(root) / m
        + math.log2(m) / n
        + eps * (3 * card_p + 1)
        + h * root
    )
    return BallBound(log2_value=n * exponent, log2_target=n * (h - 2 * delta))
