"""Empirical upper/lower densities of time sets and Phi profiles.

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
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import PolicyError, ValidationError

CHECKPOINT_RATIO = 1.05


@lru_cache(maxsize=64)
def checkpoint_grid(horizon: int, burn_in: int | None = None) -> tuple[int, ...]:
    """Geometric checkpoint grid of ratio CHECKPOINT_RATIO from the burn-in
    (max(100, N/1000) when None) up to the horizon. Built once per (horizon,
    burn-in): a scan asks for the same grid for every pair."""
    if burn_in is not None and burn_in % 1:  # nan and inf included
        raise PolicyError(f"burn-in must be an integer, got {burn_in!r}")
    burn = max(100, horizon // 1000) if burn_in is None else int(burn_in)
    if burn < 1:
        raise PolicyError("burn-in must be >= 1")
    if horizon < burn:
        raise PolicyError(f"horizon {horizon} below burn-in {burn}: no checkpoints")
    pts = []
    x = burn
    while x < horizon:
        pts.append(x)
        x = max(int(x * CHECKPOINT_RATIO), x + 1)
    pts.append(int(horizon))
    return tuple(pts)


@dataclass(frozen=True)
class DensityEstimate:
    upper: Fraction
    lower: Fraction
    checkpoints: tuple[int, ...]
    count_at_horizon: int = 0

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValidationError("need 0 <= lower <= upper <= 1")

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def _exact_extremes(
    counts: np.ndarray, ns: Sequence[int]
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact column-wise max and min of counts[i, j] / ns[i], as Fractions.

    Two unequal ratios whose denominators are at most nmax differ by at
    least 1/nmax**2, while two reals that round to the same float f differ
    by at most 2**-52 * |f|. So while nmax**2 * max|ratio| < 2**51, which
    also keeps every count and n below 2**51 unless every count is 0 (so
    int/int rounds correctly, hence monotonically), a float tie is an exact
    tie, the float argmax and argmin are the exact extremes, and a Fraction
    is built only for each winner. Above the bound every ratio is a
    Fraction.
    """
    ns = np.asarray(ns, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64).reshape(ns.size, -1)
    ratios = counts / ns[:, None]
    nmax = int(ns.max())
    if nmax * nmax * float(np.abs(ratios).max(initial=0)) < 2**51:
        return tuple(
            [Fraction(int(counts[i, j]), int(ns[i])) for j, i in enumerate(rows)]
            for rows in (np.argmax(ratios, axis=0), np.argmin(ratios, axis=0))
        )
    cols = [[Fraction(int(c), int(n)) for c, n in zip(col, ns)] for col in counts.T]
    return [max(col) for col in cols], [min(col) for col in cols]


# Up to this many levels the kernel counts each set per checkpoint segment
# with np.count_nonzero on its membership mask, one SIMD pass per set; above
# it one bincount histogram per segment counts every set at once. 3 is the
# crossover on random uint8 codes at N=1e5 and 145 checkpoints, 2 vCPUs,
# numpy 2.4 (benchmarks/bench_kernels.py): 0.64 against 0.66 ms at 3
# levels, 0.77 against 0.69 ms at 4. At N=2^20 the count takes 1.3 against
# 2.7 ms at 3 levels.
COUNT_NONZERO_MAX_LEVELS = 3


def nested_density_estimates(
    codes: np.ndarray, levels: int, checkpoints: Sequence[int]
) -> tuple[DensityEstimate, ...]:
    """Densities of the nested time sets S_j = {n : codes[n-1] <= j} for
    j = 0..levels-1, in one pass over the codes.

    Codes are integers in [0, levels]; a time with code `levels` lies in no
    set. Checkpoints are strictly increasing times in [1, len(codes)]. Each set's members are counted
    per checkpoint segment, by `np.count_nonzero` of its mask for at most
    COUNT_NONZERO_MAX_LEVELS levels and by one `np.bincount` of the codes
    per segment above that; cumsums give the (checkpoints x levels) matrix
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
    if int(codes.max()) > levels or (codes.dtype.kind == "i" and int(codes.min()) < 0):
        raise ValidationError(f"codes must lie in [0, {levels}]")
    cps = tuple(int(n) for n in checkpoints)
    if not cps or cps[0] < 1 or cps[-1] > codes.size or any(
        a >= b for a, b in zip(cps, cps[1:])
    ):
        raise PolicyError(f"checkpoints must be strictly increasing in [1, {codes.size}]")
    segments = tuple(zip((0,) + cps, cps))
    if levels <= COUNT_NONZERO_MAX_LEVELS:
        counts = np.empty((len(cps), levels), dtype=np.int64)
        for j in range(levels):
            member = codes <= j
            counts[:, j] = [np.count_nonzero(member[s:n]) for s, n in segments]
        counts = np.cumsum(counts, axis=0)
    else:
        hist = np.empty((len(cps), levels + 1), dtype=np.int64)
        for i, (s, n) in enumerate(segments):
            hist[i] = np.bincount(codes[s:n], minlength=levels + 1)
        counts = np.cumsum(np.cumsum(hist, axis=0), axis=1)[:, :levels]
    uppers, lowers = _exact_extremes(counts, cps)
    return tuple(
        DensityEstimate(upper, lower, cps, int(count))
        for upper, lower, count in zip(uppers, lowers, counts[-1])
    )


def empirical_density(mask: np.ndarray, burn_in: int | None = None) -> DensityEstimate:
    """max/min of count(S cap [1,n])/n over the checkpoint grid from the
    burn-in, for the time set S whose boolean mask over times 1..N is
    `mask`."""
    codes = (~np.asarray(mask, dtype=bool)).view(np.uint8)
    (est,) = nested_density_estimates(codes, 1, checkpoint_grid(codes.size, burn_in))
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
    all in [0, 1].

    Without an index the table holds one value per time. A metric with few
    distinct values passes them as a short table plus an integer index, so
    consumers work on the table and the N values are never materialised
    unless `values` is read.
    """

    table: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", v)
        if v.size == 0:
            raise ValidationError("distance series must be nonempty")
        if np.isnan(v).any():
            raise ValidationError("distances must not contain NaN")
        if float(v.min()) < 0 or float(v.max()) > 1:
            raise ValidationError("distances must lie in [0, 1]")
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


# 16 log-spaced thresholds from 2^-16 up to 1, the largest distance of
# every metric; the smallest stands in for the t -> 0+ limit
THRESHOLD_GRID = _read_only(np.geomspace(2.0**-16, 1.0, 16))


@dataclass(frozen=True)
class PhiProfile:
    """Empirical Phi*(t) (upper density of {n: d_n < t}) and Phi(t) (lower)
    at each point t of THRESHOLD_GRID."""

    estimates: tuple[DensityEstimate, ...]
    horizon: int
    thresholds: ClassVar[np.ndarray] = THRESHOLD_GRID

    def __post_init__(self):
        if len(self.estimates) != THRESHOLD_GRID.size:
            raise ValidationError("one estimate per threshold required")
        # each estimate has lower <= upper; the sets grow with t
        if any(
            b.upper < a.upper or b.lower < a.lower
            for a, b in zip(self.estimates, self.estimates[1:])
        ):
            raise ValidationError("Phi profiles must be nondecreasing in t")

    @cached_property
    def phi_star(self) -> np.ndarray:
        return _read_only([float(e.upper) for e in self.estimates])

    @cached_property
    def phi_lower(self) -> np.ndarray:
        return _read_only([float(e.lower) for e in self.estimates])


def phi_profile(d: DistanceSeries, burn_in: int | None = None) -> PhiProfile:
    """The Phi profile of `d` over the checkpoint grid from the burn-in."""
    grid = THRESHOLD_GRID
    cps = checkpoint_grid(d.horizon, burn_in)
    # d_n < t_j exactly when fewer than j+1 grid points are <= d_n
    if d.index is None:
        # that count per time, as a running sum of one compare per grid point
        codes = np.zeros(d.horizon, dtype=np.min_scalar_type(grid.size))
        for t in grid:
            codes += d.table >= t
        estimates = nested_density_estimates(codes, grid.size, cps)
    else:
        # the count per table entry, ranked among the counts that occur
        # (with 0 and grid.size, so the lowest and highest set have a rank);
        # the kernel counts one set per rank, and grid point j reads the set
        # of the largest occurring count <= j, whose rank is rank[j]
        table_codes = np.searchsorted(grid, d.table, side="right")
        occurs = np.zeros(grid.size + 1, dtype=bool)
        occurs[table_codes] = True
        occurs[[0, grid.size]] = True
        rank = np.cumsum(occurs) - 1
        levels = int(rank[-1])
        table_ranks = rank[table_codes].astype(np.min_scalar_type(levels))
        # an identity rank table (the Hamming one) passes the index itself
        identity = np.array_equal(table_ranks, np.arange(table_ranks.size))
        by_rank = nested_density_estimates(
            d.index if identity else np.take(table_ranks, d.index), levels, cps
        )
        estimates = tuple(by_rank[r] for r in rank[:-1])
    return PhiProfile(estimates=estimates, horizon=d.horizon)
