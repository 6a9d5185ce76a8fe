"""Reference systems, trajectory sampling, witness-pair construction and
orbit-pair metrics.

Randomness comes from numpy's PCG64 generators seeded through SeedSequence,
so every artifact is reproducible from its recorded integer seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import DistanceSeries
from .errors import (
    InsufficientHorizon,
    MetricUnavailable,
    UsageError,
    ValidationError,
)

PROB_TOL = 1e-12


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
        if min(p) < 0:
            raise ValidationError("probabilities must be nonnegative")
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
        if self.coding_depth < 1:
            raise ValidationError("coding depth must be >= 1")

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
    """Finite orbit segment: a symbol track and/or a real track."""

    spec: SystemSpec
    horizon: int
    seed: int | None
    symbols: np.ndarray | None = None
    reals: np.ndarray | None = None
    source: object | None = None  # carrier object a partition scheme reads

    def __post_init__(self):
        if self.horizon < 1:
            raise UsageError("horizon must be >= 1")
        for track in (self.symbols, self.reals):
            if track is not None and len(track) != self.horizon:
                raise ValidationError("track length must equal the horizon")
        if self.symbols is not None and hasattr(self.spec, "arity"):
            if int(self.symbols.min(initial=0)) < 0:
                raise ValidationError("symbols must be >= 0")
            if int(self.symbols.max(initial=0)) >= self.spec.arity:
                raise ValidationError("symbols must be < arity")


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


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _interval_tracks(spec: IntervalMap, horizon: int, x0: float) -> tuple[np.ndarray, np.ndarray]:
    """The real orbit over the horizon plus its coding track, which reads
    coding_depth - 1 steps past the horizon. Each map has its own loop, as
    a call per step would slow the iteration down."""
    n_iter = horizon + spec.coding_depth - 1
    xs = np.empty(n_iter, dtype=np.float64)
    x, a = float(x0), spec.parameter
    if spec.kind == "tent":
        for i in range(n_iter):
            xs[i] = x
            x = a * (x if x < 1.0 - x else 1.0 - x)
    else:
        for i in range(n_iter):
            xs[i] = x
            x = a * x * (1.0 - x)
    return xs[:horizon], coding_symbols(spec, xs)


def coding_symbols(spec: IntervalMap, reals: np.ndarray) -> np.ndarray:
    """Regenerate the coding track from a real track (where the window fits)."""
    bits = (np.asarray(reals) >= 0.5).astype(np.int64)
    horizon = len(bits) - spec.coding_depth + 1
    sym = np.zeros(horizon, dtype=np.int64)
    for j in range(spec.coding_depth):
        sym = sym * 2 + bits[j : j + horizon]
    return sym


def sample_orbit(
    spec: SystemSpec, horizon: int, seed: int, x0: float | None = None
) -> Trajectory:
    """Deterministic in (spec, horizon, seed); x0 optionally overrides the
    seeded initial point of an interval map."""
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    if isinstance(spec, FullShift):
        rng = _rng(seed)
        sym = rng.choice(spec.arity, size=horizon, p=np.asarray(spec.probs))
        return Trajectory(spec, horizon, seed, symbols=sym.astype(np.int64))
    if isinstance(spec, IntervalMap):
        if x0 is None:
            x0 = float(_rng(seed).uniform())
        if not (0.0 <= x0 <= 1.0):
            raise ValidationError("initial point must lie in [0, 1]")
        reals, sym = _interval_tracks(spec, horizon, x0)
        return Trajectory(spec, horizon, seed, symbols=sym, reals=reals)
    if isinstance(spec, OdometerSpec):
        offset = int(_rng(seed).integers(0, spec.base[-1]))
        return Trajectory(
            spec, horizon, seed, symbols=odometer_track(spec.base, offset, horizon)
        )
    if isinstance(spec, ZeroEntropy):
        from .blocks import sample_point, trajectory_from_word

        word = sample_point(spec.schedule, seed)
        # the window caps the horizon; the cap is visible on the trajectory
        return trajectory_from_word(word, min(horizon, word.available_horizon))
    raise ValidationError(f"unknown system spec {spec!r}")


def odometer_track(base: Sequence[int], offset: int, horizon: int) -> np.ndarray:
    """Marker symbol at time j = max{k : j = offset mod N_k}, else 0."""
    js = np.arange(horizon, dtype=np.int64)
    track = np.zeros(horizon, dtype=np.int64)
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
        seed=traj.seed,
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


def runs_to_mask(runs: Sequence[tuple[int, bool]], horizon: int) -> np.ndarray:
    mask = np.zeros(sum(l for l, _ in runs), dtype=bool)
    pos = 0
    for length, agree in runs:
        if agree:
            mask[pos : pos + length] = True
        pos += length
    return mask[:horizon]


def construct_witness_pair(target: str, horizon: int) -> OrbitPair:
    """Full-shift pair (x = all zeros, y = 1 exactly on disagree-runs) whose
    agreement-time densities realize the target scrambling class."""
    runs = witness_runs(target, horizon)
    if len(runs) < 6:
        raise InsufficientHorizon(
            f"horizon {horizon} covers only {len(runs)} runs of the {target} "
            "schedule; at least 6 required"
        )
    agree = runs_to_mask(runs, horizon)
    spec = FullShift(2, (0.5, 0.5))
    x = Trajectory(spec, horizon, None, symbols=np.zeros(horizon, dtype=np.int64))
    y = Trajectory(spec, horizon, None, symbols=(~agree).astype(np.int64))
    return OrbitPair(x, y)


# --- metrics -----------------------------------------------------------------

METRICS = ("hamming-indicator", "cantor", "absolute")


# The symbolic metrics take few values: the Hamming indicator {0, 1}, the
# Cantor distance {2^-j}. Their series are a table of those values plus a
# per-time index. 2^-1075 rounds to 0.0 (as does every smaller power), so
# agreement lengths are clipped at 1075 and the table ends at 0.0. Every
# series shares these tables, so they are read-only.
HAMMING_TABLE = np.array([0.0, 1.0])
CANTOR_CLIP = 1075
CANTOR_TABLE = np.ldexp(1.0, -np.arange(CANTOR_CLIP + 1))
HAMMING_TABLE.setflags(write=False)
CANTOR_TABLE.setflags(write=False)


def distance_series(pair: OrbitPair, metric: str = "hamming-indicator") -> DistanceSeries:
    a, b = pair.a, pair.b
    if metric == "hamming-indicator":
        if a.symbols is None or b.symbols is None:
            raise MetricUnavailable("hamming-indicator needs symbol tracks")
        mismatch = (a.symbols != b.symbols).view(np.uint8)
        return DistanceSeries(HAMMING_TABLE, 1.0, index=mismatch)
    if metric == "cantor":
        if a.symbols is None or b.symbols is None:
            raise MetricUnavailable("cantor needs symbol tracks")
        return DistanceSeries(CANTOR_TABLE, 1.0, index=_agreement_lengths(a.symbols, b.symbols))
    if metric == "absolute":
        if a.reals is None or b.reals is None:
            raise MetricUnavailable("absolute needs real tracks")
        return DistanceSeries(np.abs(a.reals - b.reals), 1.0)
    raise MetricUnavailable(f"unknown metric {metric!r}")


def _agreement_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index into CANTOR_TABLE: the length j of the symbol agreement run
    starting at each time, capped by the remaining horizon and clipped at
    CANTOR_CLIP. int32 while the horizon fits, half the bytes of int64."""
    n = len(a)
    dtype = np.int32 if n < 2**31 else np.int64
    idx = np.arange(n, dtype=dtype)
    # first disagreement at or after each time (n if none): a reverse running
    # min over idx at disagreements and n elsewhere. The operand is built by
    # arithmetic, about 4x faster than a masked select on random symbols.
    first = dtype(n) - idx
    first *= (a == b).view(np.uint8)
    first += idx
    nxt = np.minimum.accumulate(first[::-1])[::-1]
    run = nxt - idx
    return np.minimum(run, CANTOR_CLIP, out=run)
