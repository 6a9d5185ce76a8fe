"""Scrambled-pair classification: metric flags (Li-Yorke, DC1, DC1.5, DC2,
DC3) read off a Phi profile, partition-based flags read off same-atom
densities under a refining scheme, and a greedy scrambled-clique scan.

Every asymptotic condition becomes an explicit threshold read; the
implication chain dc1 => dc1half => dc2 => dc3 and dc2 => li_yorke is
enforced structurally on the emitted flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .density import (
    CheckpointPolicy,
    DensityEstimate,
    PhiProfile,
    nested_density_estimates,
)
from .errors import SchemeError, ValidationError
from .systems import OrbitPair, Trajectory


@dataclass(frozen=True)
class Thresholds:
    """Finite-horizon reads of the asymptotic scrambling conditions."""

    tau_one: float = 0.05  # "upper density 1" reads as >= 1 - tau_one
    tau_zero: float = 0.05  # "lower density 0" reads as <= tau_zero
    eta_grid: tuple[float, ...] = (0.5, 0.75, 0.9)
    eta_min: float = 0.05  # positive-density floor for separation
    gap: float = 0.1  # no-density gap for DC3-style reads
    burn_in: int | None = None

    def __post_init__(self):
        for name in ("tau_one", "tau_zero", "eta_min", "gap"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValidationError(f"{name} must lie in (0,1)")
        if self.tau_one + self.tau_zero >= 1:
            raise ValidationError("tau_one + tau_zero must be < 1")
        if any(not 0 < e < 1 for e in self.eta_grid):
            raise ValidationError("eta grid values must lie in (0,1)")

    def policy(self) -> CheckpointPolicy:
        return CheckpointPolicy(burn_in=self.burn_in)


@dataclass(frozen=True)
class PairVerdict:
    li_yorke: bool
    dc1: bool
    dc1half: bool
    dc2: bool
    dc3: bool
    separation_threshold: float | None
    agreement_upper: float
    separation_upper: float
    eta_to_s: dict[float, float | None]

    def __post_init__(self):
        if self.dc1 and not self.dc1half:
            raise ValidationError("dc1 requires dc1half")
        if self.dc1half and not self.dc2:
            raise ValidationError("dc1half requires dc2")
        if self.dc2 and not self.dc3:
            raise ValidationError("dc2 requires dc3")
        if self.dc2 and not self.li_yorke:
            raise ValidationError("dc2 requires li_yorke")

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "li_yorke": self.li_yorke,
            "dc1": self.dc1,
            "dc1half": self.dc1half,
            "dc2": self.dc2,
            "dc3": self.dc3,
        }


def unbounded_count_floor(horizon: int) -> int:
    """Finite surrogate for 'infinitely many times': a count is treated as
    unbounded once it reaches max(10, sqrt(N))."""
    return max(10, math.isqrt(horizon))


def _largest_threshold_reaching(
    thresholds: np.ndarray, values: np.ndarray, level: float
) -> float | None:
    """Largest grid threshold t_j with values[j] >= level."""
    for j in range(thresholds.size - 1, -1, -1):
        if values[j] >= level:
            return float(thresholds[j])
    return None


def classify_metric_pair(profile: PhiProfile, th: Thresholds = Thresholds()) -> PairVerdict:
    """Read the DC flags off the Phi profile at the grid.

    Phi*(t_min) >= 1 - tau_one stands for Phi*(0) = 1; Phi(t_min) <= tau_zero
    for Phi(0) = 0; Phi(t) <= 1 - eta_min for the positive-upper-density
    separation of DC2; a gap >= `gap` at two consecutive grid points for DC3.
    Li-Yorke reads unbounded agreement and separation counts.
    """
    star = profile.phi_star
    low = profile.phi_lower
    counts = profile.counts_at_horizon
    horizon = profile.horizon
    floor = unbounded_count_floor(horizon)

    # close approaches are read at the smallest grid threshold (the stand-in
    # for t -> 0+); separations at d >= t_min, the weakest separation level
    agree_unbounded = bool(counts[0] >= floor)
    sep_unbounded = bool(horizon - counts[0] >= floor)
    ly = agree_unbounded and sep_unbounded

    star0 = star[0]
    low0 = low[0]
    upper_one = star0 >= 1 - th.tau_one

    dc1_raw = upper_one and bool(np.any(low <= th.tau_zero))
    dc1half_raw = upper_one and low0 <= th.tau_zero
    dc2_raw = upper_one and low0 <= 1 - th.eta_min
    gaps = star - low
    consec = np.logical_and(gaps[:-1] >= th.gap, gaps[1:] >= th.gap)
    dc3_raw = bool(np.any(consec)) if gaps.size > 1 else bool(gaps[0] >= th.gap)

    # structural chain: a flag survives only if every weaker flag is set
    dc3 = dc3_raw
    dc2 = dc2_raw and dc3 and ly
    dc1half = dc1half_raw and dc2
    dc1 = dc1_raw and dc1half

    # witnesses: separation threshold = largest grid t whose separation set
    # keeps positive upper density; eta -> s_eta map over the grid
    sep_upper = 1.0 - low  # complement identity at shared checkpoints
    grid = profile.thresholds
    sep_threshold = _largest_threshold_reaching(grid, sep_upper, th.eta_min)
    eta_to_s = {eta: _largest_threshold_reaching(grid, sep_upper, eta) for eta in th.eta_grid}

    return PairVerdict(
        li_yorke=ly,
        dc1=dc1,
        dc1half=dc1half,
        dc2=dc2,
        dc3=dc3,
        separation_threshold=sep_threshold,
        agreement_upper=float(star0),
        separation_upper=float(sep_upper[0]),
        eta_to_s=eta_to_s,
    )


# --- partition-based classification ------------------------------------------


@dataclass(frozen=True)
class PartitionScheme:
    """Refining sequence of finite partitions, presented by its same-atom
    mask: `same_atom_mask(pair, k)[n]` holds when both trajectories of the
    pair lie in the same depth-k atom at time n."""

    depth: int
    same_atom_mask: Callable[[OrbitPair, int], np.ndarray]
    name: str = "scheme"

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("scheme depth must be >= 1")


def cylinder_scheme(max_depth: int):
    """Full-shift scheme: the depth-k atom at time n is the symbol word at
    [n, n+k), truncated at the horizon."""

    def same_atom_mask(pair: OrbitPair, k: int) -> np.ndarray:
        a, b = pair.a.symbols, pair.b.symbols
        if a is None or b is None:
            raise SchemeError("cylinder scheme needs a symbol track")
        eq = a == b
        out = np.ones(pair.horizon, dtype=bool)
        for j in range(min(k, pair.horizon)):  # words are truncated at the horizon
            out[: pair.horizon - j] &= eq[j:]
        return out

    return PartitionScheme(depth=max_depth, same_atom_mask=same_atom_mask, name="cylinder")


def same_atom_series(pair: OrbitPair, scheme: PartitionScheme, k: int) -> np.ndarray:
    """Boolean mask over times 1..N: where both trajectories lie in the same
    depth-k atom."""
    if not 1 <= k <= scheme.depth:
        raise SchemeError(f"depth {k} outside the scheme's range 1..{scheme.depth}")
    return np.asarray(scheme.same_atom_mask(pair, k), dtype=bool)


@dataclass(frozen=True)
class PartitionVerdict:
    pk_scrambled: bool | None = None
    pk_plus: bool | None = None
    pk_minus: bool | None = None
    k0: int | None = None
    separation_upper: float | None = None
    eta_to_k: dict[float, int | None] = field(default_factory=dict)
    gap_by_k: dict[int, float] = field(default_factory=dict)
    depth: int = 0

    def __post_init__(self):
        if self.pk_plus and not self.pk_scrambled:
            raise ValidationError("pk_plus requires pk_scrambled")


def _same_atom_estimates(
    pair: OrbitPair, scheme: PartitionScheme, th: Thresholds
) -> list[DensityEstimate]:
    """Same-atom density estimates for depths 1..depth, in one kernel pass.

    A refining scheme nests its same-atom sets, so the code at time n is
    depth minus the number of depths whose same-atom mask holds there, and
    the kernel's level j is the same-atom set at depth `depth - j`.
    """
    codes = np.full(pair.horizon, scheme.depth, dtype=np.intp)
    prev = None
    for k in range(1, scheme.depth + 1):
        mask = same_atom_series(pair, scheme, k)
        if prev is not None and np.any(mask > prev):
            raise SchemeError(
                f"scheme {scheme.name!r} does not refine: its same-atom set at "
                f"depth {k} is not inside the one at depth {k - 1}"
            )
        codes -= mask
        prev = mask
    cps = th.policy().checkpoints(pair.horizon)
    return list(nested_density_estimates(codes, scheme.depth, cps)[::-1])


def _first_depth_reaching(values: Sequence[Fraction], level: float) -> int | None:
    """First depth k (from 1) whose value, read as a float, is >= level."""
    for k, v in enumerate(values, start=1):
        if float(v) >= level:
            return k
    return None


def classify_partition_pair(
    pair: OrbitPair, scheme: PartitionScheme, th: Thresholds = Thresholds()
) -> PartitionVerdict:
    """Same-atom upper density >= 1 - tau_one at every depth, plus some depth
    whose different-atom set has upper density >= eta_min; the plus variant
    needs a depth reaching every eta of the grid."""
    if scheme.depth < 2:
        raise SchemeError("partition classification needs scheme depth >= 2")
    ests = _same_atom_estimates(pair, scheme, th)
    # complement identity: different-atom upper = 1 - same-atom lower,
    # exactly, at the shared checkpoints
    diff_upper = [Fraction(1) - e.lower for e in ests]
    agree_ok = all(float(e.upper) >= 1 - th.tau_one for e in ests)
    k0 = _first_depth_reaching(diff_upper, th.eta_min)
    pk_scrambled = agree_ok and k0 is not None
    eta_to_k = {eta: _first_depth_reaching(diff_upper, eta) for eta in th.eta_grid}
    pk_plus = pk_scrambled and all(v is not None for v in eta_to_k.values())
    return PartitionVerdict(
        pk_scrambled=pk_scrambled,
        pk_plus=pk_plus,
        k0=k0,
        separation_upper=float(diff_upper[k0 - 1]) if k0 else 0.0,
        eta_to_k=eta_to_k,
        gap_by_k={k: float(e.gap) for k, e in enumerate(ests, start=1)},
        depth=scheme.depth,
    )


def classify_pk_minus(
    pair: OrbitPair, scheme: PartitionScheme, th: Thresholds = Thresholds()
) -> PartitionVerdict:
    """Fires when, at some depth, the same-atom time set has no density:
    upper - lower >= gap."""
    if scheme.depth < 2:
        raise SchemeError("partition classification needs scheme depth >= 2")
    ests = _same_atom_estimates(pair, scheme, th)
    gaps = {k: float(e.gap) for k, e in enumerate(ests, start=1)}
    k0 = _first_depth_reaching([e.gap for e in ests], th.gap)
    return PartitionVerdict(
        pk_minus=k0 is not None,
        k0=k0,
        gap_by_k=gaps,
        depth=scheme.depth,
    )


# --- scrambled-set scan -------------------------------------------------------


def scan_scrambled_set(
    pairs: Mapping[tuple[int, int], OrbitPair],
    is_scrambled: Callable[[OrbitPair], bool],
    singleton_if_empty: bool = True,
) -> list[int]:
    """Greedy clique in the graph whose edges are scrambled pairs: vertices
    visited by descending degree, ties broken by ascending id. Deterministic.
    """
    vertices: set[int] = set()
    for i, j in pairs:
        vertices.update((i, j))
    adjacency: dict[int, set[int]] = {v: set() for v in vertices}
    for (i, j), pair in pairs.items():
        if i == j:
            raise ValidationError("pairs must join distinct trajectory ids")
        if is_scrambled(pair):
            adjacency[i].add(j)
            adjacency[j].add(i)
    order = sorted(vertices, key=lambda v: (-len(adjacency[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in adjacency[v] for u in clique):
            clique.append(v)
    if len(clique) <= 1 and not singleton_if_empty:
        # size 1 can only mean the graph had no edges at all
        return []
    return sorted(clique)


def all_pairs(trajectories: Sequence[Trajectory]):
    """Dictionary of all unordered index pairs, for scan_scrambled_set."""
    out: dict[tuple[int, int], OrbitPair] = {}
    for i in range(len(trajectories)):
        for j in range(i + 1, len(trajectories)):
            out[(i, j)] = OrbitPair(trajectories[i], trajectories[j])
    return out
