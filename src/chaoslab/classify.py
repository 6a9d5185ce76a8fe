"""Scrambled-pair classification: metric flags (Li-Yorke, DC1, DC1.5, DC2,
DC3) read off a Phi profile, partition-based flags read off same-atom
densities under a refining scheme, and a greedy scrambled-clique scan.

Every asymptotic condition becomes an explicit threshold read; the
implication chain dc1 => dc1half => dc2 => dc3 and dc2 => li_yorke is
enforced structurally on the emitted flags.
"""
from __future__ import annotations

import math
from collections import UserDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .density import (
    PLANE_BLOCK,
    DensityEstimate,
    PhiProfile,
    agreement_runs,
    check_planes,
    checkpoint_grid,
    nested_density_estimates,
)
from .errors import SchemeError, ValidationError
from .systems import OrbitPair, Trajectory


@dataclass(frozen=True)
class Thresholds:
    """Finite-horizon reads of the asymptotic scrambling conditions."""

    tau_one: float = 0.05  # "upper density 1" reads as >= 1 - tau_one
    tau_zero: float = 0.05  # "lower density 0" reads as <= tau_zero
    eta_min: float = 0.05  # positive-density floor for separation
    gap: float = 0.1  # no-density gap for DC3-style reads

    def __post_init__(self):
        for name in ("tau_one", "tau_zero", "eta_min", "gap"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValidationError(f"{name} must lie in (0,1)")
        one_minus_tau_one, tau_zero, _, _ = self.exact_bounds
        if tau_zero >= one_minus_tau_one:  # on the decimals the reads use
            raise ValidationError("tau_one + tau_zero must be < 1")

    @cached_property
    def exact_bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The bounds of `threshold_reads`, 1 - tau_one, tau_zero, 1 - eta_min
        and gap, built once, each threshold taken as the decimal it prints
        as: Fraction(repr(0.1)) is 1/10, where Fraction(0.1) is the binary
        float just above it."""
        tau_one, tau_zero, eta_min, gap = (
            Fraction(repr(x)) for x in (self.tau_one, self.tau_zero, self.eta_min, self.gap)
        )
        return 1 - tau_one, tau_zero, 1 - eta_min, gap


@dataclass(frozen=True)
class PairVerdict:
    li_yorke: bool
    dc1: bool
    dc1half: bool
    dc2: bool
    dc3: bool
    separation_threshold: float | None
    separation_upper: float

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


def threshold_reads(estimates: Sequence[DensityEstimate], th: Thresholds):
    """The one place a verdict meets a threshold: four tuples with one bool
    per estimate, (full, null, separated, gapped), for upper >= 1 - tau_one,
    lower <= tau_zero, lower <= 1 - eta_min (the complement's upper density
    is >= eta_min) and upper - lower >= gap. The metric flags read them per
    grid point, the partition flags per depth. Each compare is exact, in
    integers cross-multiplied over the positive denominators, so no Fraction
    is built per read."""
    (fn, fd), (zn, zd), (sn, sd), (gn, gd) = (b.as_integer_ratio() for b in th.exact_bounds)
    full, null, separated, gapped = [], [], [], []
    for e in estimates:
        un, ud = e.upper.as_integer_ratio()
        ln, ld = e.lower.as_integer_ratio()
        full.append(un * fd >= fn * ud)
        null.append(ln * zd <= zn * ld)
        separated.append(ln * sd <= sn * ld)
        gapped.append((un * ld - ln * ud) * gd >= gn * ud * ld)
    return tuple(full), tuple(null), tuple(separated), tuple(gapped)


def classify_metric_pair(profile: PhiProfile, th: Thresholds = Thresholds()) -> PairVerdict:
    """Read the DC flags off the Phi profile's estimates at the grid.

    Phi*(t_min) >= 1 - tau_one stands for Phi*(0) = 1; Phi(t_min) <= tau_zero
    for Phi(0) = 0; Phi(t) <= 1 - eta_min for the positive-upper-density
    separation of DC2; a gap >= `gap` at two consecutive grid points for
    DC3. Li-Yorke reads unbounded agreement and separation counts. The
    finite read cannot yet tell DC1 from DC1half, so `dc1` repeats
    `dc1half`. The grid, burn-in included, is the profile's (`phi_profile`).
    """
    first = profile.estimates[0]
    full, null, separated, gapped = threshold_reads(profile.estimates, th)
    horizon = profile.horizon
    floor = unbounded_count_floor(horizon)

    # close approaches are read at the smallest grid threshold (the stand-in
    # for t -> 0+); separations at d >= t_min, the weakest separation level
    ly = first.count_at_horizon >= floor and horizon - first.count_at_horizon >= floor

    dc3 = any(map(all, zip(gapped, gapped[1:])))
    # structural chain: a flag survives only if every weaker flag is set
    dc2 = full[0] and separated[0] and dc3 and ly
    dc1half = dc2 and null[0]

    # witness: separation threshold = largest grid t whose separation set
    # keeps positive upper density
    reaching = [t for t, sep in zip(profile.thresholds.tolist(), separated) if sep]

    return PairVerdict(
        li_yorke=ly,
        dc1=dc1half,
        dc1half=dc1half,
        dc2=dc2,
        dc3=dc3,
        separation_threshold=reaching[-1] if reaching else None,
        # complement identity at shared checkpoints
        separation_upper=float(1 - first.lower),
    )


# --- partition-based classification ------------------------------------------


@dataclass(frozen=True)
class PartitionScheme:
    """Refining sequence of finite partitions, presented by its same-atom
    planes: `same_atom_planes(pair)` is the (depth, words) stack of packed
    planes (see `density.pack_times`) whose row k-1 holds the times at which
    both trajectories of the pair lie in the same depth-k atom."""

    depth: int
    same_atom_planes: Callable[[OrbitPair], np.ndarray]
    name: str = "scheme"

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("scheme depth must be >= 1")


def cylinder_scheme(max_depth: int):
    """Full-shift scheme: the depth-k atom at time n is the symbol word at
    [n, n+k), truncated at the horizon: the run of k agreements from n,
    the Cantor series' set at the grid point whose CANTOR_DEPTHS is k."""

    def same_atom_planes(pair: OrbitPair) -> np.ndarray:
        if pair.a.symbols is None or pair.b.symbols is None:
            raise SchemeError("cylinder scheme needs a symbol track")
        return agreement_runs(pair.agreement, pair.horizon, max_depth)

    return PartitionScheme(depth=max_depth, same_atom_planes=same_atom_planes, name="cylinder")


def same_atom_series(pair: OrbitPair, scheme: PartitionScheme) -> np.ndarray:
    """The scheme's same-atom planes of `pair`, row k-1 for depth k, checked:
    `check_planes`, one row per depth, each row inside the one before. The
    rows are compared PLANE_BLOCK at a time, each block with the rows just
    above it (one block up to depth 64)."""
    planes = check_planes(scheme.same_atom_planes(pair), pair.horizon)
    if len(planes) != scheme.depth:
        raise SchemeError(
            f"scheme {scheme.name!r} of depth {scheme.depth} gave {len(planes)} planes"
        )
    for start in range(0, len(planes), PLANE_BLOCK):
        first = max(start, 1)  # row 0 has no row above it
        stop = min(start + PLANE_BLOCK, len(planes))
        outside = np.flatnonzero((planes[first:stop] & ~planes[first - 1 : stop - 1]).any(axis=1))
        if outside.size:
            k = first + int(outside[0]) + 1
            raise SchemeError(
                f"scheme {scheme.name!r} does not refine: its same-atom set at "
                f"depth {k} is not inside the one at depth {k - 1}"
            )
    return planes


@dataclass(frozen=True)
class PartitionVerdict:
    """The partition analogs of dc2, dc1half and dc3 (measure-theoretic,
    measure-theoretic+ and minus chaos); k0 is the first depth whose
    different-atom upper density reaches eta_min, with that density as
    separation_upper (0.0 without one)."""

    pk_scrambled: bool
    pk_plus: bool
    pk_minus: bool
    k0: int | None
    separation_upper: float

    def __post_init__(self):
        if self.pk_plus and not self.pk_scrambled:
            raise ValidationError("pk_plus requires pk_scrambled")


def classify_partition_pair(
    pair: OrbitPair, scheme: PartitionScheme, th: Thresholds = Thresholds(),
    burn_in: int | None = None,
) -> PartitionVerdict:
    """Three reads of the same-atom densities at depths 1..depth over the
    checkpoint grid from `burn_in`, as `phi_profile` reads its series, through
    `threshold_reads`; the different-atom set is the complement, so its
    upper density is 1 - the same-atom lower density:
    - pk: same-atom upper density >= 1 - tau_one at every depth, and some
      depth whose different-atom upper density is >= eta_min;
    - pk_plus: pk, and some depth whose different-atom upper density is
      >= 1 - tau_zero;
    - pk_minus: some depth whose same-atom set has upper - lower >= gap."""
    if scheme.depth < 2:
        raise SchemeError("partition classification needs scheme depth >= 2")
    cps = checkpoint_grid(pair.horizon, burn_in)  # a bad burn-in fails before any plane
    ests = nested_density_estimates(same_atom_series(pair, scheme), pair.horizon, cps)
    full, null, separated, gapped = threshold_reads(ests, th)
    k0 = next((k for k, sep in enumerate(separated, start=1) if sep), None)
    pk = k0 is not None and all(full)
    return PartitionVerdict(
        pk_scrambled=pk,
        pk_plus=pk and any(null),
        pk_minus=any(gapped),
        k0=k0,
        separation_upper=float(1 - ests[k0 - 1].lower) if k0 else 0.0,
    )


# --- scrambled-set scan -------------------------------------------------------


def scan_scrambled_set(
    pairs: Mapping[tuple[int, int], OrbitPair],
    is_scrambled: Callable[[OrbitPair], bool],
) -> list[int]:
    """Greedy clique in the graph whose edges are scrambled pairs: vertices
    visited by descending degree, ties broken by ascending id. Deterministic;
    a graph without edges gives its lowest id alone, and no pairs give []."""
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
    return sorted(clique)


class _PairsOnRead(UserDict):
    """(i, j) -> the trajectories i < j, read as a new OrbitPair each time,
    so that no pair, nor the agreement plane it caches, outlives its
    reader. UserDict keeps the keys, their order and len."""

    def __getitem__(self, key: tuple[int, int]) -> OrbitPair:
        return OrbitPair(*self.data[key])


def all_pairs(trajectories: Sequence[Trajectory]) -> Mapping[tuple[int, int], OrbitPair]:
    """Mapping of all unordered index pairs, for scan_scrambled_set; each
    OrbitPair is built when it is read."""
    indexed = enumerate(trajectories)
    return _PairsOnRead({(i, j): (a, b) for (i, a), (j, b) in combinations(indexed, 2)})
