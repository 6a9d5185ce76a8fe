"""Empirical upper/lower densities of time sets and Phi profiles.

Counting is exact: counts and horizons stay integers, and the extremes of
count/n are picked exactly and reported as ``fractions.Fraction``. The
limsup/liminf of count(S cap [1,n])/n is replaced by the max/min over a
geometric checkpoint grid beyond a burn-in; that finite-horizon surrogate is
the only approximation in this module. Time sets are packed planes of
uint64 words (`pack_times`), counted by one popcount kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, Sequence

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


def _read_only(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


# 16 log-spaced thresholds from 2^-16 up to 1, the largest distance of
# every metric; the smallest stands in for the t -> 0+ limit
THRESHOLD_GRID = _read_only(np.geomspace(2.0**-16, 1.0, 16))


def pack_times(mask: np.ndarray) -> np.ndarray:
    """The packed plane of the time set masked by `mask` over times 1..N:
    ceil(N/64) uint64 words in little bit order, bit i of the string
    standing for time i+1, every bit past N zero."""
    mask = np.asarray(mask, dtype=bool)
    packed = np.zeros(-(-mask.size // 64) * 8, dtype=np.uint8)
    packed[: -(-mask.size // 8)] = np.packbits(mask, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_times(plane: np.ndarray, horizon: int) -> np.ndarray:
    """The boolean mask over times 1..horizon of a packed plane."""
    words = np.asarray(plane).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=horizon, bitorder="little").view(bool)


def check_planes(planes: np.ndarray, horizon: int) -> np.ndarray:
    """`planes` as a 2-d stack of packed planes over times 1..horizon, or a
    ValidationError: uint64 words, ceil(horizon/64) of them per plane, and
    no bit set past the horizon."""
    planes = np.asarray(planes)
    words = -(-horizon // 64)
    if planes.dtype != np.uint64:
        raise ValidationError(f"planes must be uint64 words, got dtype {planes.dtype}")
    if horizon < 1 or planes.ndim != 2 or planes.shape[0] < 1 or planes.shape[1] != words:
        raise ValidationError(
            f"need a nonempty stack of planes of {words} words, got shape {planes.shape}"
        )
    if horizon % 64 and np.any(planes[:, -1] >> (horizon % 64)):
        raise ValidationError(f"planes must have no bit set past time {horizon}")
    return planes


def agreement_runs(agree: np.ndarray, horizon: int, depths: Sequence[int]) -> np.ndarray:
    """Planes of {n : the agreement plane holds at times n, ..., n+k-1}, one
    per depth k in `depths`: depth k's run shifted down one bit and ANDed
    with the plane gives depth k+1's. Times past the horizon agree, so a run
    reaching it holds at every depth; no bit past the horizon is set."""
    agree = check_planes(np.asarray(agree)[None], horizon)[0]
    past = ~np.uint64(0) << np.uint64(horizon % 64) if horizon % 64 else np.uint64(0)
    # the plane plus one word beyond it, with every time past the horizon set
    word = np.append(agree, ~np.uint64(0))
    word[-2] |= past
    run = word.copy()
    out = np.empty((len(depths), agree.size), dtype=np.uint64)
    for k in range(1, max(depths) + 1):
        if k > 1:
            run[:-1] = (run[:-1] >> 1 | run[1:] << 63) & word[:-1]
        out[[i for i, depth in enumerate(depths) if depth == k]] = run[:-1]
    out[:, -1] &= ~past
    return out


def nested_density_estimates(
    planes: np.ndarray, horizon: int, checkpoints: Sequence[int]
) -> tuple[DensityEstimate, ...]:
    """Densities of the time sets of a stack of packed planes over times
    1..horizon (see `pack_times`), one estimate per plane.

    Checkpoints are strictly increasing times in [1, horizon]. The word
    popcounts of each plane are summed per segment between consecutive
    checkpoint words by one np.add.reduceat, and a cumsum over the
    checkpoints turns the segment sums into the counts of the whole words
    below each checkpoint's word; count(S cap [1, n]) adds the popcount of
    that word's bits below n. The (checkpoints x planes) count matrix goes
    to `_exact_extremes`.
    """
    planes = check_planes(planes, horizon)
    cps = tuple(int(n) for n in checkpoints)
    if not cps or cps[0] < 1 or cps[-1] > horizon or any(
        a >= b for a, b in zip(cps, cps[1:])
    ):
        raise PolicyError(f"checkpoints must be strictly increasing in [1, {horizon}]")
    ns = np.asarray(cps, dtype=np.int64)
    word, bit = ns >> 6, (ns & 63).astype(np.uint64)
    # one zero column past the last word, so that the word of n = N on a
    # multiple of 64 is a valid reduceat index
    pop = np.zeros((planes.shape[0], planes.shape[1] + 1), dtype=np.uint8)
    np.bitwise_count(planes, out=pop[:, :-1])
    edges = np.concatenate(([0], word))
    # segment i sums the words edges[i] <= w < edges[i + 1]; reduceat gives
    # the single word edges[i] where the two are equal, a segment of none
    segments = np.add.reduceat(pop, edges, axis=1, dtype=np.int64)[:, :-1]
    segments[:, edges[:-1] == edges[1:]] = 0
    below = (np.uint64(1) << bit) - np.uint64(1)  # 0 where n ends a word
    partial = planes[:, np.minimum(word, planes.shape[1] - 1)] & below
    counts = (np.cumsum(segments, axis=1) + np.bitwise_count(partial)).T
    uppers, lowers = _exact_extremes(counts, cps)
    return tuple(
        DensityEstimate(upper, lower, cps, int(count))
        for upper, lower, count in zip(uppers, lowers, counts[-1])
    )


# Float distances are compared with the grid a chunk of this many times at a
# time, a multiple of 64 so that each chunk packs into whole words: the
# chunk's 512 KB of float64 stay in cache over the 16 compares, about 3x
# faster than whole-array compares at N=1e6 (2 vCPUs, numpy 2.4)
VALUE_CHUNK = 2**16


@dataclass(frozen=True)
class DistanceSeries:
    """The time sets {n : d_n < t} of a pair's separations d_1..d_N in
    [0, 1], one per point t of THRESHOLD_GRID, as packed planes: grid point
    j reads plane rows[j]. A metric whose sets repeat along the grid (the
    Hamming indicator's are all one set) stores each set once."""

    planes: np.ndarray
    horizon: int
    rows: tuple[int, ...] = tuple(range(THRESHOLD_GRID.size))

    def __post_init__(self):
        object.__setattr__(self, "planes", check_planes(self.planes, self.horizon))
        rows = self.rows
        if len(rows) != THRESHOLD_GRID.size or not all(0 <= r < len(self.planes) for r in rows):
            raise ValidationError("need one plane row in range per threshold")

    @classmethod
    def from_values(
        cls, values: np.ndarray, other: np.ndarray | None = None
    ) -> "DistanceSeries":
        """The series of N distances given as floats, or as |values - other|
        for two real tracks. The distances are built, checked and compared
        with each grid point one chunk of VALUE_CHUNK times at a time, into
        one reused boolean buffer, so neither the N distances nor 16 N-byte
        masks are held at once."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0 or (other is not None and np.shape(other) != v.shape):
            raise ValidationError("distance series must be a nonempty 1-d array")
        planes = np.empty((THRESHOLD_GRID.size, -(-v.size // 64)), dtype=np.uint64)
        below = np.empty(min(v.size, VALUE_CHUNK), dtype=bool)
        for start in range(0, v.size, VALUE_CHUNK):
            part = v[start : start + VALUE_CHUNK]
            if other is not None:
                part = np.abs(part - other[start : start + VALUE_CHUNK])
            if np.isnan(part).any():
                raise ValidationError("distances must not contain NaN")
            if float(part.min()) < 0 or float(part.max()) > 1:
                raise ValidationError("distances must lie in [0, 1]")
            mask, words = below[: part.size], slice(start // 64, -(-(start + part.size) // 64))
            for plane, t in zip(planes, THRESHOLD_GRID):
                plane[words] = pack_times(np.less(part, t, out=mask))
        return cls(planes, v.size)


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
    """The Phi profile of `d` over the checkpoint grid from the burn-in: one
    kernel call counts each stored plane once."""
    cps = checkpoint_grid(d.horizon, burn_in)
    by_plane = nested_density_estimates(d.planes, d.horizon, cps)
    return PhiProfile(estimates=tuple(by_plane[r] for r in d.rows), horizon=d.horizon)
