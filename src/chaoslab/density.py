"""Empirical upper/lower densities of time sets, Phi profiles and running
ergodic averages.

Counting is exact: counts and horizons stay integers, and the extremes of
count/n are picked exactly and reported as ``fractions.Fraction``. The
limsup/liminf of count(S cap [1,n])/n is replaced by the max/min over a
geometric checkpoint grid beyond a burn-in; that finite-horizon surrogate is
the only approximation in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import PolicyError, ValidationError

DEFAULT_CHECKPOINT_RATIO = 1.05


def default_burn_in(horizon: int) -> int:
    return max(100, horizon // 1000)


@dataclass(frozen=True)
class CheckpointPolicy:
    """Geometric checkpoint grid from burn-in to the horizon.

    burn_in=None defers to max(100, N/1000) at evaluation time.
    """

    burn_in: int | None = None
    ratio: float = DEFAULT_CHECKPOINT_RATIO

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 1:
            raise PolicyError("burn-in must be >= 1")
        if self.ratio <= 1.0:
            raise PolicyError("checkpoint ratio must be > 1")

    def resolve_burn_in(self, horizon: int) -> int:
        return self.burn_in if self.burn_in is not None else default_burn_in(horizon)

    def checkpoints(self, horizon: int) -> tuple[int, ...]:
        return _checkpoints(self.resolve_burn_in(horizon), self.ratio, horizon)


@lru_cache(maxsize=64)
def _checkpoints(burn: int, ratio: float, horizon: int) -> tuple[int, ...]:
    """The grid of `CheckpointPolicy.checkpoints`, built once per (burn-in,
    ratio, horizon): a scan asks for the same grid for every pair."""
    if horizon < burn:
        raise PolicyError(f"horizon {horizon} below burn-in {burn}: no checkpoints")
    pts = []
    x = int(burn)
    while x < horizon:
        pts.append(x)
        x = max(int(x * ratio), x + 1)
    pts.append(int(horizon))
    return tuple(sorted(set(pts)))


@dataclass(frozen=True)
class DensityEstimate:
    upper: Fraction
    lower: Fraction
    checkpoints: tuple[int, ...]
    burn_in: int
    count_at_horizon: int = 0

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValidationError("need 0 <= lower <= upper <= 1")

    @property
    def upper_float(self) -> float:
        return float(self.upper)

    @property
    def lower_float(self) -> float:
        return float(self.lower)

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def _exact_extremes(
    counts: np.ndarray, ns: Sequence[int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact column-wise max and min of counts[i, j] / ns[i], as Fractions.

    Floats preselect: int/int below 2**53 rounds correctly, hence
    monotonically, so each exact extreme lies among the rows whose float
    ratio ties the float extreme. Ties are settled by int64
    cross-multiplication, exact while max|count| * max(n) < 2**63. Empty and
    full columns tie at every row, so the check runs on whole arrays and a
    Fraction is built only for each winner.
    """
    ns = np.asarray(ns, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64).reshape(ns.size, -1)
    top = int(np.abs(counts).max(initial=0))
    nmax = int(ns.max())
    if max(top, nmax) >= 2**53 or top * nmax >= 2**63:
        cols = [[Fraction(int(c), int(n)) for c, n in zip(col, ns)] for col in counts.T]
        return [max(col) for col in cols], [min(col) for col in cols]
    ratios = counts / ns[:, None]
    return (
        _pick_extreme(counts, ns, ratios, np.argmax(ratios, axis=0), 1),
        _pick_extreme(counts, ns, ratios, np.argmin(ratios, axis=0), -1),
    )


def _pick_extreme(counts, ns, ratios, rows, sign) -> list[Fraction]:
    """Fractions at `rows` (one per column), after replacing any row that a
    float-tied row beats exactly (sign=1 for max, -1 for min)."""
    cols = np.arange(counts.shape[1])
    tied = ratios == ratios[rows, cols]
    # sign of counts[i, j]/ns[i] - counts[rows[j], j]/ns[rows[j]], exactly
    cross = counts * ns[rows] - counts[rows, cols] * ns[:, None]
    for j in np.flatnonzero(np.any(tied & (sign * cross > 0), axis=0)):
        rows[j] = max(
            np.flatnonzero(tied[:, j]),
            key=lambda i: sign * Fraction(int(counts[i, j]), int(ns[i])),
        )
    return [Fraction(int(counts[i, j]), int(ns[i])) for j, i in enumerate(rows)]


def nested_density_estimates(
    codes: np.ndarray, levels: int, checkpoints: Sequence[int]
) -> tuple[DensityEstimate, ...]:
    """Densities of the nested time sets S_j = {n : codes[n-1] <= j} for
    j = 0..levels-1, in one pass over the codes.

    Codes are integers in [0, levels]; a time with code `levels` lies in no
    set. Checkpoints are strictly increasing times in [1, len(codes)], and
    the first one is each estimate's burn-in. The codes are histogrammed per
    checkpoint segment, two cumsums give the (checkpoints x levels) matrix
    of count(S_j cap [1, n]), and each column's extremes are picked exactly
    by `_exact_extremes`. A single time set, as a boolean mask, is the
    one-level case with codes `~mask`.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size == 0:
        raise ValidationError("codes must be a nonempty 1-d array")
    if codes.dtype.kind not in "biu":
        raise ValidationError(f"codes must be integers, got dtype {codes.dtype}")
    if levels < 1:
        raise ValidationError("need at least one level")
    # bincount rejects negative codes with a bare ValueError; unsigned codes
    # need only the upper check below
    if codes.dtype.kind == "i" and int(codes.min()) < 0:
        raise ValidationError(f"codes must lie in [0, {levels}]")
    cps = tuple(int(n) for n in checkpoints)
    if not cps or cps[0] < 1 or cps[-1] > codes.size or any(
        a >= b for a, b in zip(cps, cps[1:])
    ):
        raise PolicyError(f"checkpoints must be strictly increasing in [1, {codes.size}]")
    hist = np.empty((len(cps), levels + 1), dtype=np.int64)
    start = 0
    for i, n in enumerate(cps):
        row = np.bincount(codes[start:n], minlength=levels + 1)
        if row.size > levels + 1:
            raise ValidationError(f"codes must lie in [0, {levels}]")
        hist[i] = row
        start = n
    counts = np.cumsum(np.cumsum(hist, axis=0), axis=1)[:, :levels]
    uppers, lowers = _exact_extremes(counts, cps)
    return tuple(
        DensityEstimate(upper, lower, cps, cps[0], int(count))
        for upper, lower, count in zip(uppers, lowers, counts[-1])
    )


def empirical_density(
    mask: np.ndarray, policy: CheckpointPolicy = CheckpointPolicy()
) -> DensityEstimate:
    """max/min of count(S cap [1,n])/n over the policy's checkpoint grid, for
    the time set S whose boolean mask over times 1..N is `mask`."""
    codes = (~np.asarray(mask, dtype=bool)).view(np.uint8)
    (est,) = nested_density_estimates(codes, 1, policy.checkpoints(codes.size))
    return est


def density_along(
    mask: np.ndarray, checkpoints: Iterable[int], which: str = "lower"
) -> Fraction:
    """Density of the time set masked by `mask` along an explicit checkpoint
    subsequence.

    which="lower" takes the min of count/n over the given checkpoints (the
    density achieved as a liminf along the subsequence), "upper" the max.
    """
    codes = (~np.asarray(mask, dtype=bool)).view(np.uint8)
    cps = sorted(set(int(n) for n in checkpoints))
    if not cps:
        raise PolicyError("empty checkpoint subsequence")
    if cps[0] < 1 or cps[-1] > codes.size:
        raise PolicyError("checkpoints must lie in [1, horizon]")
    if which not in ("lower", "upper"):
        raise ValidationError(f"which must be lower|upper, got {which!r}")
    (est,) = nested_density_estimates(codes, 1, cps)
    return est.lower if which == "lower" else est.upper


@dataclass(frozen=True)
class DistanceSeries:
    """Per-time separation values of an orbit pair, d_n = table[index[n]],
    all in [0, diameter].

    Without an index the table holds one value per time. A metric with few
    distinct values passes them as a short table plus an integer index, so
    consumers work on the table and the N values are never materialised
    unless `values` is read.
    """

    table: np.ndarray
    diameter: float = 1.0
    index: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", v)
        if self.diameter <= 0:
            raise ValidationError("diameter must be > 0")
        if v.size == 0:
            raise ValidationError("distance series must be nonempty")
        if np.isnan(v).any():
            raise ValidationError("distances must not contain NaN")
        if float(v.min()) < 0 or float(v.max()) > self.diameter:
            raise ValidationError("distances must lie in [0, diameter]")
        if self.index is not None:
            i = np.asarray(self.index)
            object.__setattr__(self, "index", i)
            if i.ndim != 1 or i.size == 0 or i.dtype.kind not in "iu":
                raise ValidationError("distance index must be a nonempty 1-d integer array")
            if int(i.min()) < 0 or int(i.max()) >= v.size:
                raise ValidationError(f"distance index must lie in [0, {v.size})")

    @property
    def values(self) -> np.ndarray:
        return self.table if self.index is None else self.table[self.index]

    @property
    def horizon(self) -> int:
        return int((self.table if self.index is None else self.index).size)


def _read_only(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def default_threshold_grid(diameter: float = 1.0, points: int = 16) -> np.ndarray:
    """Logarithmic grid from diameter*2^-16 up to the diameter; the smallest
    point stands in for the t -> 0+ limit. Built once per (diameter, points)
    and read-only: a scan asks for the same grid for every pair."""
    return _read_only(np.geomspace(diameter * 2.0**-16, diameter, points))


@dataclass(frozen=True)
class PhiProfile:
    """Empirical Phi*(t) (upper density of {n: d_n < t}) and Phi(t) (lower)
    on a threshold grid."""

    thresholds: np.ndarray
    estimates: tuple[DensityEstimate, ...]
    horizon: int

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        object.__setattr__(self, "thresholds", t)
        if t.size == 0 or np.any(np.diff(t) <= 0):
            raise ValidationError("threshold grid must be strictly increasing")
        if t[0] <= 0:
            raise ValidationError("smallest threshold must be > 0")
        if len(self.estimates) != t.size:
            raise ValidationError("one estimate per threshold required")
        stars = self.phi_star
        lows = self.phi_lower
        if np.any(np.diff(stars) < 0) or np.any(np.diff(lows) < 0):
            raise ValidationError("Phi profiles must be nondecreasing in t")
        if np.any(lows > stars):
            raise ValidationError("Phi must not exceed Phi* anywhere")

    @cached_property
    def phi_star(self) -> np.ndarray:
        return _read_only([e.upper_float for e in self.estimates])

    @cached_property
    def phi_lower(self) -> np.ndarray:
        return _read_only([e.lower_float for e in self.estimates])

    @property
    def counts_at_horizon(self) -> np.ndarray:
        return np.array([e.count_at_horizon for e in self.estimates], dtype=np.int64)


def phi_profile(
    d: DistanceSeries,
    grid: np.ndarray | None = None,
    policy: CheckpointPolicy = CheckpointPolicy(),
) -> PhiProfile:
    if grid is None:
        grid = default_threshold_grid(d.diameter)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or grid[0] <= 0:
        raise PolicyError("threshold grid must start above 0")
    if np.any(np.diff(grid) <= 0):
        raise PolicyError("threshold grid must be strictly increasing")
    # d_n < t_j exactly when fewer than j+1 grid points are <= d_n
    codes = np.searchsorted(grid, d.table, side="right")
    if d.index is not None:
        codes = codes[d.index]
    return PhiProfile(
        thresholds=grid,
        estimates=nested_density_estimates(codes, grid.size, policy.checkpoints(d.horizon)),
        horizon=d.horizon,
    )


class BesicovitchBounds(NamedTuple):
    """min/max of the running mean of the distance over the checkpoint grid."""

    low: Fraction | float
    high: Fraction | float


def besicovitch_bounds(
    d: DistanceSeries, policy: CheckpointPolicy = CheckpointPolicy()
) -> BesicovitchBounds:
    """Running-mean extrema of the distance series; exact Fractions for
    integer-valued series, floats otherwise. Integrality is read off the
    table, so an integer-valued coded series is summed as integers."""
    cps = policy.checkpoints(d.horizon)
    at = np.asarray(cps, dtype=np.int64) - 1
    rounded = np.rint(d.table)
    if np.array_equal(d.table, rounded):
        ints = rounded.astype(np.int64)
        sums = np.cumsum(ints if d.index is None else ints[d.index])[at]
        (high,), (low,) = _exact_extremes(sums, cps)
    else:
        means = np.cumsum(d.values)[at] / np.asarray(cps, dtype=np.float64)
        low, high = float(means.min()), float(means.max())
    return BesicovitchBounds(low, high)
