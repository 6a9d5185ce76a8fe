"""Reference systems, trajectory sampling, witness-pair construction and
orbit-pair metrics.

Randomness comes from numpy's PCG64 generators seeded through SeedSequence,
so every artifact is reproducible from its recorded integer seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .density import THRESHOLD_GRID, DistanceSeries, agreement_runs, pack_times
from .errors import (
    InsufficientHorizon,
    MetricUnavailable,
    UsageError,
    ValidationError,
)

PROB_TOL = 1e-12


def symbol_dtype(arity: int) -> np.dtype:
    """The dtype of every symbol track over `arity` symbols: the narrowest
    unsigned integer holding arity - 1 (uint8 up to 256 symbols)."""
    return np.min_scalar_type(arity - 1)


@dataclass(frozen=True)
class FullShift:
    """Full shift on `arity` symbols sampled i.i.d. with the given weights."""

    arity: int
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.arity < 2:
            raise ValidationError("full shift needs arity >= 2")
        p = tuple(float(x) for x in self.probs)
        object.__setattr__(self, "probs", p)
        if len(p) != self.arity:
            raise ValidationError("need one probability per symbol")
        if not (np.isfinite(p).all() and min(p) >= 0):
            raise ValidationError("probabilities must be finite and nonnegative")
        if abs(sum(p) - 1.0) > PROB_TOL:
            raise ValidationError("probabilities must sum to 1 within 1e-12")


@dataclass(frozen=True)
class IntervalMap:
    """Tent (a*min(x,1-x), a in (0,2]) or logistic (r*x*(1-x), r in (0,4])
    map on [0,1]; emits the real orbit plus a symbolic coding track whose
    symbol at time n packs the next `coding_depth` itinerary bits
    [x >= 1/2]."""

    kind: str
    parameter: float
    coding_depth: int = 1

    def __post_init__(self):
        if self.kind not in ("tent", "logistic"):
            raise ValidationError("kind must be tent|logistic")
        hi = 2.0 if self.kind == "tent" else 4.0
        if not (0.0 < self.parameter <= hi):
            raise ValidationError(f"{self.kind} parameter must be in (0, {hi}]")
        # a symbol packs its bits in symbol_dtype(arity), uint64 at depth 63;
        # the cap keeps each symbol below 2^63, where the pair dump's int64
        # cells and the entropy's word codes hold it
        if not 1 <= self.coding_depth <= 63:
            raise ValidationError(f"coding depth must lie in 1..63, got {self.coding_depth}")

    @property
    def arity(self) -> int:
        return 2**self.coding_depth


@dataclass(frozen=True)
class OdometerSpec:
    """Adding machine to base (N_1, N_2, ...) with N_k | N_{k+1}; trajectories
    are marker tracks (symbol = highest marker level at the time, 0 = none)."""

    base: tuple[int, ...]

    def __post_init__(self):
        b = tuple(int(x) for x in self.base)
        object.__setattr__(self, "base", b)
        if not b or b[0] < 2:
            raise ValidationError("base entries must be >= 2")
        for lo, hi in zip(b, b[1:]):
            if hi % lo != 0:
                raise ValidationError("each base entry must divide the next")

    @property
    def arity(self) -> int:
        return len(self.base) + 1


@dataclass(frozen=True)
class ZeroEntropy:
    """The marker-block system built from a QSchedule (see chaoslab.blocks)."""

    schedule: "object"

    @property
    def arity(self) -> int:
        return 2


SystemSpec = FullShift | IntervalMap | OdometerSpec | ZeroEntropy


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Finite orbit segment: a symbol track and/or a real track.

    Each track is taken through np.asarray and must be 1-d over the
    horizon. The symbol track is stored in symbol_dtype(spec.arity); a track
    of another integer dtype is checked against the alphabet and then cast,
    and a track of non-integer dtype is refused."""

    spec: SystemSpec
    horizon: int
    symbols: np.ndarray | None = None
    reals: np.ndarray | None = None
    source: object | None = None  # carrier object a partition scheme reads

    def __post_init__(self):
        if not isinstance(self.spec, SystemSpec):
            raise ValidationError(f"spec must be a system spec, got {type(self.spec).__name__}")
        if self.horizon < 1:
            raise UsageError("horizon must be >= 1")
        for name in ("symbols", "reals"):
            if getattr(self, name) is not None:
                track = np.asarray(getattr(self, name))
                object.__setattr__(self, name, track)
                if track.shape != (self.horizon,):
                    raise ValidationError("track length must equal the horizon")
        if self.symbols is not None:
            if self.symbols.dtype.kind not in "biu":
                raise ValidationError(f"symbols must be integers, got dtype {self.symbols.dtype}")
            if int(self.symbols.min(initial=0)) < 0:
                raise ValidationError("symbols must be >= 0")
            if int(self.symbols.max(initial=0)) >= self.spec.arity:
                raise ValidationError("symbols must be < arity")
            narrow = self.symbols.astype(symbol_dtype(self.spec.arity), copy=False)
            object.__setattr__(self, "symbols", narrow)


@dataclass(frozen=True, eq=False)
class OrbitPair:
    a: Trajectory
    b: Trajectory

    def __post_init__(self):
        if self.a.horizon != self.b.horizon:
            raise ValidationError("paired trajectories must share the horizon")
        if self.a.spec != self.b.spec:
            raise ValidationError("paired trajectories must share the system spec")

    @property
    def horizon(self) -> int:
        return self.a.horizon

    @cached_property
    def agreement(self) -> np.ndarray:
        """The packed plane (see `density.pack_times`) of the times at which
        the two symbol tracks agree, built once per pair (a witness pair is
        given it by `construct_witness_pair`): the Hamming and Cantor series
        and the cylinder scheme all read it."""
        return pack_times(self.a.symbols == self.b.symbols)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _interval_tracks(spec: IntervalMap, horizon: int, x0: float) -> tuple[np.ndarray, np.ndarray]:
    """The real orbit over the horizon plus its coding track, which reads
    coding_depth - 1 steps past the horizon. Each map has its own generator
    (a call per step would slow the iteration down) that yields x and then
    steps it; np.fromiter drains it in place of a numpy scalar store per
    step."""
    a = spec.parameter
    if spec.kind == "tent":
        def orbit(x):
            while True:
                yield x
                # `x < 0.5` decides as `x < 1.0 - x` would on [0, 1], where
                # a <= 2 keeps the orbit: for x < 0.5, fl(1 - x) >= 0.5 > x;
                # for x >= 0.5, 1 - x is exact (Sterbenz) and <= 0.5 <= x.
                x = a * (x if x < 0.5 else 1.0 - x)
    else:
        def orbit(x):
            while True:
                yield x
                x = a * x * (1.0 - x)
    xs = np.fromiter(orbit(float(x0)), np.float64, horizon + spec.coding_depth - 1)
    return xs[:horizon], coding_symbols(spec, xs)


def coding_symbols(spec: IntervalMap, reals: np.ndarray) -> np.ndarray:
    """Regenerate the coding track from a real track (where the window fits)."""
    bits = np.asarray(reals) >= 0.5
    horizon = len(bits) - spec.coding_depth + 1
    if horizon < 0:
        raise ValidationError("real track is shorter than coding_depth - 1")
    sym = bits[:horizon].astype(symbol_dtype(spec.arity))
    for j in range(1, spec.coding_depth):
        sym <<= 1
        sym |= bits[j : j + horizon]
    return sym


def _full_shift_symbols(spec: FullShift, horizon: int, seed: int) -> np.ndarray:
    """The symbols Generator.choice(arity, horizon, p=probs) draws, from its
    uniforms and its cdf, found by a branchless binary search in place of
    its searchsorted: the boundaries cdf[:-1] are padded with inf to
    2^m - 1 entries (m bits name a symbol), and each of the m steps adds
    its power of two where the boundary it gathers is <= u. The result
    counts the boundaries <= u, as searchsorted(side="right") does."""
    u = _rng(seed).random(horizon)
    cdf = np.cumsum(spec.probs)
    cdf /= cdf[-1]
    m = (spec.arity - 1).bit_length()
    bounds = np.full(2**m - 1, np.inf)
    bounds[: spec.arity - 1] = cdf[:-1]
    dtype = symbol_dtype(spec.arity)
    step = 1 << (m - 1)
    sym = np.multiply(bounds[step - 1] <= u, step, dtype=dtype)
    while step > 1:
        step >>= 1
        sym += np.multiply(bounds[sym + (step - 1)] <= u, step, dtype=dtype)
    return sym


def sample_orbit(
    spec: SystemSpec, horizon: int, seed: int, x0: float | None = None
) -> Trajectory:
    """Deterministic in (spec, horizon, seed); x0 optionally overrides the
    seeded initial point of an interval map."""
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if isinstance(spec, FullShift):
        return Trajectory(spec, horizon, symbols=_full_shift_symbols(spec, horizon, seed))
    if isinstance(spec, IntervalMap):
        if x0 is None:
            x0 = float(_rng(seed).uniform())
        if not (0.0 <= x0 <= 1.0):
            raise ValidationError("initial point must lie in [0, 1]")
        reals, sym = _interval_tracks(spec, horizon, x0)
        return Trajectory(spec, horizon, symbols=sym, reals=reals)
    if isinstance(spec, OdometerSpec):
        offset = int(_rng(seed).integers(0, spec.base[-1]))
        return Trajectory(spec, horizon, symbols=odometer_track(spec.base, offset, horizon))
    if isinstance(spec, ZeroEntropy):
        from .blocks import sample_point, trajectory_from_word

        word = sample_point(spec.schedule, seed)
        # the window caps the horizon; the cap is visible on the trajectory
        return trajectory_from_word(word, min(horizon, word.available_horizon))
    raise ValidationError(f"unknown system spec {spec!r}")


def odometer_track(base: Sequence[int], offset: int, horizon: int) -> np.ndarray:
    """Marker symbol at time j = max{k : j = offset mod N_k}, else 0."""
    js = np.arange(horizon, dtype=np.int64)
    track = np.zeros(horizon, dtype=symbol_dtype(len(base) + 1))
    for k, nk in enumerate(base, start=1):
        track[(js - offset) % nk == 0] = k
    return track


def truncate_trajectory(traj: Trajectory, horizon: int) -> Trajectory:
    if horizon > traj.horizon:
        raise UsageError("cannot extend a trajectory")
    if horizon == traj.horizon:
        return traj
    return Trajectory(
        spec=traj.spec,
        horizon=horizon,
        symbols=None if traj.symbols is None else traj.symbols[:horizon],
        reals=None if traj.reals is None else traj.reals[:horizon],
        source=traj.source,
    )


def make_pair(spec: SystemSpec, horizon: int, seeds: tuple[int, int]) -> OrbitPair:
    """Two orbits of `spec` sampled independently from distinct seeds."""
    sa, sb = seeds
    if sa == sb:
        raise UsageError("an independent pair requires distinct seeds")
    a = sample_orbit(spec, horizon, sa)
    b = sample_orbit(spec, horizon, sb)
    # window-capped systems may cap the two horizons differently
    common = min(a.horizon, b.horizon)
    return OrbitPair(truncate_trajectory(a, common), truncate_trajectory(b, common))


# --- witness pairs -----------------------------------------------------------

WITNESS_TARGETS = ("LY", "DC1", "DC1half", "DC2", "DC3")


def witness_runs(target: str, horizon: int) -> list[tuple[int, bool]]:
    """Agree/disagree run schedule (length, is_agree), first run agreeing.

    DC1/DC1half: L_{i+1} = 5 * (sum of all previous runs) so each run's end
    pushes its own set's ratio above 5/6. DC2: agree runs grow the same way,
    each followed by a disagree run of a fixed quarter of the period. DC3:
    doubling runs (ratio oscillates between 2/3 and 1/3). LY: linearly
    growing runs (both ratios tend to 1/2).
    """
    runs: list[tuple[int, bool]] = []
    total = 0
    if target in ("DC1", "DC1half"):
        length, agree = 1, True
        while total < horizon:
            runs.append((length, agree))
            total += length
            length, agree = 5 * total, not agree
    elif target == "DC2":
        agree_len = 4
        while total < horizon:
            dis_len = max(1, agree_len // 3)  # disagree = 1/4 of each period
            runs.append((agree_len, True))
            runs.append((dis_len, False))
            total += agree_len + dis_len
            agree_len = 4 * total
    elif target == "DC3":
        length, agree = 2, True
        while total < horizon:
            runs.append((length, agree))
            total += length
            length, agree = 2 * length, not agree
    elif target == "LY":
        length, agree = 1, True
        while total < horizon:
            runs.append((length, agree))
            total += length
            length, agree = length + 1, not agree
    else:
        raise ValidationError(f"unknown witness target {target!r}")
    return runs


def construct_witness_pair(target: str, horizon: int) -> OrbitPair:
    """Full-shift pair (x = all zeros, y = 1 exactly on disagree-runs) whose
    agreement-time densities realize the target scrambling class. The
    schedule is expanded by one np.repeat of the run flags over the run
    lengths cut at the horizon, and the pair's agreement plane is packed
    from that mask, so it is not rebuilt from the symbols."""
    runs = witness_runs(target, horizon)
    if len(runs) < 6:
        raise InsufficientHorizon(
            f"horizon {horizon} covers only {len(runs)} runs of the {target} "
            "schedule; at least 6 required"
        )
    lengths, flags = np.array(runs, dtype=np.int64).T
    ends = np.minimum(np.cumsum(lengths), horizon)
    agree = np.repeat(flags.astype(bool), np.diff(ends, prepend=0))
    spec = FullShift(2, (0.5, 0.5))
    x = Trajectory(spec, horizon, symbols=np.zeros(horizon, dtype=symbol_dtype(spec.arity)))
    y = Trajectory(spec, horizon, symbols=(~agree).view(symbol_dtype(spec.arity)))
    pair = OrbitPair(x, y)
    vars(pair)["agreement"] = pack_times(agree)  # where the cached property keeps it
    return pair


# --- metrics -----------------------------------------------------------------

METRICS = ("hamming-indicator", "cantor", "absolute")


# The Cantor distance from n is 2^-L, L the agreement run from n, unbounded
# (d = 0) if it reaches the horizon. Grid point t_j reads {2^-L < t_j} =
# {L >= k_j}, k_j the number of Cantor values 2^-L >= t_j: cylinder depth k_j.
CANTOR_DEPTHS = tuple(
    int(np.count_nonzero(np.ldexp(1.0, -np.arange(64)) >= t)) for t in THRESHOLD_GRID
)


def check_metric(metric: str, *trajectories: Trajectory) -> None:
    """MetricUnavailable unless `metric` is known and every trajectory has
    the track it reads: reals for `absolute`, symbols for the others."""
    if metric not in METRICS:
        raise MetricUnavailable(f"unknown metric {metric!r}")
    track = "real" if metric == "absolute" else "symbol"
    if any(getattr(t, f"{track}s") is None for t in trajectories):
        raise MetricUnavailable(f"{metric} needs {track} tracks")


def distance_series(pair: OrbitPair, metric: str = "hamming-indicator") -> DistanceSeries:
    """The pair's threshold sets under `metric`. The symbolic metrics read
    the agreement plane: the Hamming indicator is below every grid point
    exactly where the symbols agree, and the Cantor set at t_j is the run
    of CANTOR_DEPTHS[j] agreements (`density.agreement_runs`)."""
    check_metric(metric, pair.a, pair.b)
    if metric == "hamming-indicator":
        return DistanceSeries(pair.agreement[None], pair.horizon, (0,) * THRESHOLD_GRID.size)
    if metric == "cantor":
        runs = agreement_runs(pair.agreement, pair.horizon, CANTOR_DEPTHS)
        return DistanceSeries(runs, pair.horizon)
    return DistanceSeries.from_values(pair.a.reals, pair.b.reals)
