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


def empirical_cylinder_entropy(
    track: Sequence[int], word_len: int, stride: int = 1, alphabet: int | None = None
) -> float:
    """Plug-in entropy rate H_l/l of the empirical distribution of length-l
    words read at the given stride (1 = overlapping windows).

    Horizons below 100 * alphabet^l undersample the word distribution; that
    raises an UndersampledWarning, not an error.
    """
    sym = np.asarray(track, dtype=np.int64)
    if word_len < 1:
        raise ValidationError("word length must be >= 1")
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    if sym.size < word_len:
        raise ValidationError("track shorter than one word")
    if alphabet is None:
        alphabet = int(sym.max(initial=0)) + 1
    alphabet = max(alphabet, 2)
    if sym.size < 100 * alphabet**word_len:
        warnings.warn(
            f"horizon {sym.size} undersamples {alphabet}^{word_len} words",
            UndersampledWarning,
            stacklevel=2,
        )
    windows = np.lib.stride_tricks.sliding_window_view(sym, word_len)[::stride]
    weights = alphabet ** np.arange(word_len - 1, -1, -1, dtype=np.int64)
    values = windows @ weights
    _, counts = np.unique(values, return_counts=True)
    p = counts / values.size
    return float(-(p * np.log2(p)).sum() / word_len)


@dataclass(frozen=True)
class PipkaParams:
    """Solution of the separation-parameter inequality
    2 H(sqrt(eta), 1-sqrt(eta))/m + eps (3 #P + 1) < (1 - sqrt(eta)) h
    with eps < 1 - sqrt(eta): smallest m, then largest feasible grid eps."""

    eta: float
    h: float
    card_p: int
    feasible: bool
    m: int | None = None
    eps: float | None = None
    margin: float | None = None

    def lhs(self) -> float:
        assert self.m is not None and self.eps is not None
        root = math.sqrt(self.eta)
        return 2 * binary_entropy(root) / self.m + self.eps * (3 * self.card_p + 1)

    def rhs(self) -> float:
        return (1 - math.sqrt(self.eta)) * self.h


def solve_pipka(
    eta: float,
    h: float,
    card_p: int,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
) -> PipkaParams:
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0,1)")
    if h < 0:
        raise ValidationError("h must be >= 0")
    if card_p < 2:
        raise ValidationError("partition cardinality must be >= 2")
    if not eps_grid:
        raise ValidationError("eps grid must be nonempty")
    root = math.sqrt(eta)
    rhs = (1 - root) * h
    two_h = 2 * binary_entropy(root)
    best_m: int | None = None
    for eps in eps_grid:
        if eps >= 1 - root:
            continue
        slack = rhs - eps * (3 * card_p + 1)
        if slack <= 0:
            continue
        m = math.floor(two_h / slack) + 1
        while two_h / m >= slack:  # strictness under float rounding
            m += 1
        if best_m is None or m < best_m:
            best_m = m
    if best_m is None:
        return PipkaParams(eta=eta, h=h, card_p=card_p, feasible=False)
    feasible_eps = [
        e
        for e in eps_grid
        if e < 1 - root and two_h / best_m + e * (3 * card_p + 1) < rhs
    ]
    eps = max(feasible_eps)
    margin = rhs - (two_h / best_m + eps * (3 * card_p + 1))
    params = PipkaParams(
        eta=eta, h=h, card_p=card_p, feasible=True, m=best_m, eps=eps, margin=margin
    )
    # post-check substitution of both constraints
    if not (params.eps < 1 - root and params.lhs() < params.rhs()):
        raise ValidationError("solver produced an infeasible solution")  # pragma: no cover
    return params


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
    if not 1 <= m <= n:
        raise ValidationError("need 1 <= m <= n")
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
    if not 0 < eta < 1:
        raise ValidationError("eta must lie in (0,1)")
    root = math.sqrt(eta)
    if eps >= 1 - root:
        raise ValidationError("need eps < 1 - sqrt(eta)")
    exponent = (
        2 * binary_entropy(root) / m
        + math.log2(m) / n
        + eps * (3 * card_p + 1)
        + h * root
    )
    return BallBound(log2_value=n * exponent, log2_target=n * (h - 2 * delta))


@dataclass(frozen=True)
class CountingExperiment:
    """One row of a counting sweep: the exact ball count against the
    closed-form bound."""

    n: int
    m: int
    eta: float
    eps: float
    delta: float
    a0: str
    count: int
    bound: BallBound

    @property
    def ratio_to_total(self) -> float:
        return self.count / (1 << self.n)  # exact int division, no overflow


def run_counting_experiment(
    n: int,
    m: int,
    eta: float,
    eps: float,
    h: float,
    card_p: int,
    delta: float,
    a0: str | None = None,
) -> CountingExperiment:
    if a0 is None:
        a0 = "0" * n
    if len(a0) != n:
        raise ValidationError("a0 must have length n")
    count = count_eta_ball(a0, m, eta)
    bound = eta_ball_bound(n, m, eta, eps, h, card_p, delta)
    return CountingExperiment(
        n=n, m=m, eta=eta, eps=eps, delta=delta, a0=a0, count=count, bound=bound
    )
