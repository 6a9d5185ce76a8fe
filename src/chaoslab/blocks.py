"""Marker-block system: block families over a q-schedule, the free-position
coding bijection, marker rows, fiber sampling and the central-block partition
scheme.

Level-k blocks are built by the recursion  C_1 = {ww : w in {0,1}^{q_1}},
B_k = (C_{k-1})^{q_k}, C_k = {BB : B in B_k};  a C_k member has length
N_k = p_k * 2^k (p_k = q_1...q_k) and is determined by the p_k bits written
at its free positions. Every position of a C_k member copies one free bit;
that source index is built once per (schedule, k). `encode_block` and `pi`
are the only gathers through it; both act on the last axis of a stack of
rows, so family enumeration, sampling, decoding and membership checks of
many blocks are one call. All percentage claims about these blocks are
exact rationals.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    GuardExceeded,
    MembershipError,
    SchemeError,
    UsageError,
    ValidationError,
)
from .systems import OrbitPair, Trajectory, ZeroEntropy, odometer_track

DEFAULT_WINDOW_BUDGET = 1 << 24
ENUMERATION_LIMIT = 16  # enumerate C_k only while p_k <= 16


@dataclass(frozen=True)
class QSchedule:
    """Integers q_1..q_K >= 2 with the derived block parameters."""

    q: tuple[int, ...]

    def __post_init__(self):
        q = tuple(int(x) for x in self.q)
        object.__setattr__(self, "q", q)
        if not q:
            raise ValidationError("q-schedule must be nonempty")
        if any(x < 2 for x in q):
            raise ValidationError("every q_k must be >= 2")

    @property
    def depth(self) -> int:
        return len(self.q)

    def p(self, k: int) -> int:
        self._check_level(k)
        prod = 1
        for x in self.q[:k]:
            prod *= x
        return prod

    def n(self, k: int) -> int:
        return self.p(k) * 2**k

    def family_size(self, k: int) -> int:
        return 2 ** self.p(k)

    def b_length(self, k: int) -> int:
        return self.p(k) * 2 ** (k - 1)

    def _check_level(self, k: int) -> None:
        if not 1 <= k <= self.depth:
            raise ValidationError(f"level {k} outside 1..{self.depth}")


@dataclass(frozen=True)
class LevelParams:
    k: int
    q_k: int
    p_k: int
    n_k: int
    b_length: int
    family_size: int


def derive_params(
    schedule: QSchedule, window_budget: int = DEFAULT_WINDOW_BUDGET
) -> list[LevelParams]:
    """Exact integer parameter table for every level of the schedule."""
    if schedule.n(schedule.depth) > window_budget:
        raise GuardExceeded(
            f"N_{schedule.depth} = {schedule.n(schedule.depth)} exceeds the "
            f"window budget {window_budget}"
        )
    return [
        LevelParams(
            k=k,
            q_k=schedule.q[k - 1],
            p_k=schedule.p(k),
            n_k=schedule.n(k),
            b_length=schedule.b_length(k),
            family_size=schedule.family_size(k),
        )
        for k in range(1, schedule.depth + 1)
    ]


@functools.lru_cache(maxsize=64)
def _source_index(schedule: QSchedule, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, free) of level k: position j of a C_k member copies free bit
    src[j], and free[i] is the first position copying bit i. Built by running
    the block recursion once on the bit indices 0..p_k-1; both arrays are
    read-only, as the cache shares them."""
    pk = schedule.p(k)
    rows = np.arange(pk, dtype=np.min_scalar_type(pk - 1)).reshape(-1, schedule.q[0])
    rows = np.concatenate([rows, rows], axis=1)  # C_1 members
    for level in range(2, k + 1):
        qk = schedule.q[level - 1]
        rows = rows.reshape(rows.shape[0] // qk, qk * rows.shape[1])  # B_level
        rows = np.concatenate([rows, rows], axis=1)  # C_level
    src = rows[0]
    free = np.unique(src, return_index=True)[1]
    src.flags.writeable = False
    free.flags.writeable = False
    return src, free


def _check_rows(ok: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise `error(message)` unless `ok` holds everywhere. For a stack of
    rows (the last axis runs along a row) the message names the first
    failing row, counted in C order."""
    if ok.all():
        return
    bad = ~np.all(ok, axis=-1)
    if bad.ndim:
        message = f"row {np.flatnonzero(bad)[0]}: {message}"
    raise error(message)


def _bits(
    values, error: type[Exception] = ValidationError, message: str = "bits must be 0/1"
) -> np.ndarray:
    """`values` as an int8 array (at least 1-d) of bits, checked in the
    input's own dtype before the cast, so that 0.9 or 256 is never truncated
    or wrapped into a bit. A non-integer entry raises ValidationError; an
    integer other than 0/1 raises `error(message)`, naming the first bad row
    of a stack."""
    raw = np.asarray(values)
    if raw.ndim == 0:
        raw = raw.reshape(1)
    kind = raw.dtype.kind
    if kind == "f":
        _check_rows(raw == np.floor(raw), ValidationError, "bits must be integers")
        _check_rows((raw == 0) | (raw == 1), error, message)
    elif kind in "iu":
        # 0 and 1 are the integers with no bit set above the lowest (a
        # negative one has its sign bit set), so one OR-reduction tests all
        if np.bitwise_or.reduce(raw, axis=None) >> 1:
            _check_rows((raw == 0) | (raw == 1), error, message)
    elif kind != "b":
        raise ValidationError(f"bits must be integers, got dtype {raw.dtype}")
    return raw.astype(np.int8, copy=False)


def encode_block(schedule: QSchedule, k: int, free_bits: Sequence[int]) -> np.ndarray:
    """Write the p_k free bits through the recursion; returns the C_k member
    of length N_k. A stack of free words (last axis p_k) encodes to the
    stack of their members."""
    schedule._check_level(k)
    bits = _bits(free_bits, message="free bits must be 0/1")
    if bits.shape[-1] != schedule.p(k):
        raise ValidationError(
            f"level {k} needs exactly p_{k} = {schedule.p(k)} free bits, "
            f"got {bits.shape[-1]}"
        )
    return bits[..., _source_index(schedule, k)[0]]


def inverse_pi(schedule: QSchedule, k: int, word: Sequence[int]) -> np.ndarray:
    """Two-sided inverse of pi on C_k: identical to encode_block."""
    return encode_block(schedule, k, word)


@dataclass(frozen=True)
class FreeLayout:
    """Free positions of a level-k block and, per free position, the
    positions forced to repeat it. Classes {f} + copies partition [0, N_k)."""

    level: int
    free: tuple[int, ...]
    copies: dict[int, tuple[int, ...]]

    def classes(self) -> list[tuple[int, ...]]:
        return [tuple(sorted((f,) + self.copies[f])) for f in self.free]


def free_positions(schedule: QSchedule, k: int) -> FreeLayout:
    schedule._check_level(k)
    src, _ = _source_index(schedule, k)
    # each bit has 2^k copies; a stable sort lists them in position order
    classes = np.argsort(src, kind="stable").reshape(schedule.p(k), 2**k).tolist()
    free = tuple(cls[0] for cls in classes)
    copies = {cls[0]: tuple(cls[1:]) for cls in classes}
    return FreeLayout(level=k, free=free, copies=copies)


def pi(schedule: QSchedule, k: int, block: Sequence[int]) -> np.ndarray:
    """Read the free positions of a C_k member left to right. A stack of
    blocks (last axis N_k) decodes to the stack of their words."""
    rows = _bits(block, MembershipError, "block is not a binary row")
    if rows.shape[-1] != schedule.n(k):
        raise MembershipError(
            f"C_{k} members have length {schedule.n(k)}, got {rows.shape[-1]}"
        )
    src, free = _source_index(schedule, k)
    words = rows[..., free]
    _check_rows(words[..., src] == rows, MembershipError, f"block is not a member of C_{k}")
    return words


def is_member(schedule: QSchedule, k: int, block: Sequence[int]) -> bool:
    try:
        pi(schedule, k, block)
        return True
    except MembershipError:
        return False


def enumerate_family(schedule: QSchedule, k: int) -> np.ndarray:
    """All C_k members as a (2^p_k, N_k) array, ordered by their pi-word read
    as a big-endian integer."""
    pk = schedule.p(k)
    if pk > ENUMERATION_LIMIT:
        raise GuardExceeded(
            f"enumeration of C_{k} needs 2^{pk} blocks; limit is p_k <= {ENUMERATION_LIMIT}"
        )
    words = (np.arange(2**pk)[:, None] >> np.arange(pk - 1, -1, -1)) & 1
    return encode_block(schedule, k, words)


def project_position(schedule: QSchedule, k: int, j: int) -> int:
    """Coordinate descent [0, N_k) -> [0, p_k): the free bit position j
    copies."""
    schedule._check_level(k)
    if not 0 <= j < schedule.n(k):
        raise ValidationError(f"position {j} outside [0, {schedule.n(k)})")
    return int(_source_index(schedule, k)[0][j])


def marker_row(
    schedule: QSchedule, offset: int = 0, length: int | None = None
) -> np.ndarray:
    """Marker value at position j = max{k <= K : j = offset mod N_k}, else 0:
    the odometer track over (N_1, ..., N_K). The top level is capped at K;
    no infinite marker is ever emitted."""
    top = schedule.n(schedule.depth)
    if not 0 <= offset < top:
        raise ValidationError(f"offset must lie in [0, {top})")
    levels = [schedule.n(k) for k in range(1, schedule.depth + 1)]
    return odometer_track(levels, offset, top if length is None else length)


@dataclass(frozen=True, eq=False)
class TwoRowWord:
    """One or more top-level blocks with a marker row; `offset` is the block
    position of time zero, so times 0..len(binary)-offset-1 are readable."""

    schedule: QSchedule
    offset: int
    binary: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        row = _bits(self.binary, message="binary row must be 0/1")
        object.__setattr__(self, "binary", row)
        top = self.schedule.n(self.schedule.depth)
        if row.size == 0 or row.size % top != 0:
            raise ValidationError("binary row must be a whole number of top blocks")
        if not 0 <= self.offset < top:
            raise ValidationError(f"offset must lie in [0, {top})")

    @property
    def blocks(self) -> int:
        return self.binary.size // self.schedule.n(self.schedule.depth)

    @property
    def offset_chain(self) -> tuple[int, ...]:
        """Per-level position of time zero inside its enclosing k-block;
        consecutive entries agree modulo N_k."""
        return tuple(self.offset % self.schedule.n(k) for k in range(1, self.schedule.depth + 1))

    @property
    def markers(self) -> np.ndarray:
        return marker_row(self.schedule, 0, self.binary.size)

    @property
    def available_horizon(self) -> int:
        return self.binary.size - self.offset

    def symbol_track(self, horizon: int | None = None) -> np.ndarray:
        if horizon is None:
            horizon = self.available_horizon
        if horizon > self.available_horizon:
            raise UsageError(
                f"horizon {horizon} exceeds available {self.available_horizon} "
                f"(window length minus offset)"
            )
        return self.binary[self.offset : self.offset + horizon].astype(np.int64)

    def validate(self) -> None:
        """Check that every top-level window is a family member (membership
        at the top level forces it at every lower level); the error names
        the first window that is not."""
        top = self.schedule.n(self.schedule.depth)
        pi(self.schedule, self.schedule.depth, self.binary.reshape(-1, top))


def sample_point(
    schedule: QSchedule,
    seed: int,
    window_budget: int = DEFAULT_WINDOW_BUDGET,
    blocks: int = 1,
    offset: int | None = None,
) -> TwoRowWord:
    """Uniform offset and uniform free bits: every (offset, free-word) atom
    has probability 1/(N_K 2^{p_K}). Extra blocks draw fresh free words."""
    top_n = schedule.n(schedule.depth)
    if top_n * blocks > window_budget:
        raise GuardExceeded(
            f"window of {blocks} block(s) of length {top_n} exceeds budget {window_budget}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if offset is None:
        offset = int(rng.integers(0, top_n))
    # one draw of shape (blocks, p_K) is the same stream as one per block
    bits = rng.integers(0, 2, (blocks, schedule.p(schedule.depth)))
    binary = encode_block(schedule, schedule.depth, bits).reshape(-1)
    return TwoRowWord(schedule, offset, binary, seed=seed)


def word_from_free_words(
    schedule: QSchedule, free_words: np.ndarray, offset: int = 0
) -> TwoRowWord:
    """Pull an image-side track back through the coding bijection, one
    top-level block per p_K-bit row."""
    words = _bits(free_words, message="free bits must be 0/1")
    pk = schedule.p(schedule.depth)
    if words.ndim == 1:
        if words.size % pk != 0:
            raise ValidationError(f"flat free-word track must be a multiple of p_K={pk}")
        words = words.reshape(-1, pk)
    binary = encode_block(schedule, schedule.depth, words).reshape(-1)
    return TwoRowWord(schedule, offset, binary)


def trajectory_from_word(word: TwoRowWord, horizon: int | None = None) -> Trajectory:
    if horizon is None:
        horizon = word.available_horizon
    return Trajectory(
        spec=ZeroEntropy(word.schedule),
        horizon=horizon,
        seed=word.seed,
        symbols=word.symbol_track(horizon),
        source=word,
    )


def fiber_pair(
    schedule: QSchedule,
    seeds: tuple[int, int],
    offset: int | None = None,
    blocks: int = 1,
    horizon: int | None = None,
) -> OrbitPair:
    """Two words over identical marker rows (shared offset) with independent
    uniform free bits."""
    sa, sb = seeds
    if sa == sb:
        raise UsageError("fiber pair requires distinct seeds")
    if offset is None:
        # derive the shared offset from both seeds, away from either bit stream
        offset_rng = np.random.default_rng(np.random.SeedSequence([sa, sb]))
        offset = int(offset_rng.integers(0, schedule.n(schedule.depth)))
    wa = sample_point(schedule, sa, blocks=blocks, offset=offset)
    wb = sample_point(schedule, sb, blocks=blocks, offset=offset)
    return OrbitPair(trajectory_from_word(wa, horizon), trajectory_from_word(wb, horizon))


# --- percentages -------------------------------------------------------------


def differing_components(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """Per row of two equal-shape stacks, the number of aligned length-`length`
    components (along the last axis) where the rows differ."""
    if a.shape != b.shape:
        raise ValidationError("stacks must have equal shape")
    if a.shape[-1] % length != 0:
        raise ValidationError(f"row length must be a multiple of {length}")
    parts = a.shape[:-1] + (-1, length)
    return np.count_nonzero(np.any(a.reshape(parts) != b.reshape(parts), axis=-1), axis=-1)


def entry_disagreement(block_a: Sequence[int], block_b: Sequence[int]) -> Fraction:
    """Exact fraction of entries where the two rows differ."""
    a = _bits(block_a)
    b = _bits(block_b)
    if a.size != b.size:
        raise ValidationError("blocks must have equal length")
    return Fraction(int(differing_components(a.ravel(), b.ravel(), 1)), int(a.size))


def disagreement_fraction(
    schedule: QSchedule,
    block_a: Sequence[int],
    block_b: Sequence[int],
    component_level: int,
) -> Fraction:
    """Exact fraction of component level-k blocks (canonical decomposition)
    where two members of the same family differ."""
    a = _bits(block_a, MembershipError, "block is not a binary row")
    b = _bits(block_b, MembershipError, "block is not a binary row")
    outer = _infer_level(schedule, a.size)
    if a.size != b.size or not is_member(schedule, outer, np.stack([a, b])):
        raise MembershipError(f"both blocks must be members of C_{outer}")
    if not 1 <= component_level < outer:
        raise ValidationError("component level must satisfy k < k'")
    nk = schedule.n(component_level)
    return Fraction(int(differing_components(a, b, nk)), a.size // nk)


def image_component_disagreement(
    schedule: QSchedule,
    word_a: Sequence[int],
    word_b: Sequence[int],
    component_level: int,
) -> Fraction:
    """Image-side analog: fraction of p_k-bit groups where two pi-words
    differ."""
    a = _bits(word_a)
    b = _bits(word_b)
    if a.size != b.size:
        raise ValidationError("words must have equal length")
    pk = schedule.p(component_level)
    if a.size % pk != 0:
        raise ValidationError("word length must be a multiple of p_k")
    return Fraction(int(differing_components(a, b, pk)), a.size // pk)


def _infer_level(schedule: QSchedule, length: int) -> int:
    for k in range(1, schedule.depth + 1):
        if schedule.n(k) == length:
            return k
    raise MembershipError(f"length {length} matches no level of the schedule")


# --- central-block partition scheme -----------------------------------------


def central_block_scheme(schedule: QSchedule):
    """The depth-k atom at time n is (position of n inside its enclosing
    k-block, content of that block). Both trajectories must carry a
    TwoRowWord source over this schedule and stay inside its window.
    Refining: the enclosing (k+1)-block determines the k-block."""
    from .classify import PartitionScheme

    def same_atom_mask(pair: OrbitPair, k: int) -> np.ndarray:
        wa, wb = pair.a.source, pair.b.source
        for word in (wa, wb):
            if not isinstance(word, TwoRowWord):
                raise SchemeError("central-block scheme needs TwoRowWord sources")
            if word.schedule != schedule:
                raise SchemeError("trajectory was built over a different schedule")
            if pair.horizon > word.available_horizon:
                raise SchemeError(f"time {word.available_horizon} outside the word's window")
        nk = schedule.n(k)
        if wa.offset % nk != wb.offset % nk:
            return np.zeros(pair.horizon, dtype=bool)  # positions never align
        # time n lies in k-block (offset + n) // N_k of each word; with equal
        # residues the two block indices differ by a constant shift
        first = wa.offset // nk
        last = (wa.offset + pair.horizon - 1) // nk
        shift = wb.offset // nk - first
        blocks_a = wa.binary.reshape(-1, nk)[first : last + 1]
        blocks_b = wb.binary.reshape(-1, nk)[first + shift : last + 1 + shift]
        same = np.all(blocks_a == blocks_b, axis=1)
        return same[(wa.offset + np.arange(pair.horizon)) // nk - first]

    return PartitionScheme(
        depth=schedule.depth,
        same_atom_mask=same_atom_mask,
        name=f"central-block(q={','.join(map(str, schedule.q))})",
    )


def aligned_window_scheme(window_lengths: Sequence[int], name: str = "aligned-window"):
    """The depth-k atom at time n is (phase, content) of its enclosing
    aligned window of length L_k, the trailing window cut at the horizon;
    L_k must divide L_{k+1}. Works on plain symbol tracks (offset 0). This is
    the image-side counterpart of the central-block scheme."""
    from .classify import PartitionScheme

    lengths = tuple(int(x) for x in window_lengths)
    if any(b % a != 0 for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("each window length must divide the next")

    def same_atom_mask(pair: OrbitPair, k: int) -> np.ndarray:
        lk = lengths[k - 1]
        full = (pair.horizon // lk) * lk
        eq = np.all(
            pair.a.symbols[:full].reshape(-1, lk) == pair.b.symbols[:full].reshape(-1, lk),
            axis=1,
        )
        out = np.empty(pair.horizon, dtype=bool)
        out[:full] = np.repeat(eq, lk)
        out[full:] = np.array_equal(pair.a.symbols[full:], pair.b.symbols[full:])
        return out

    return PartitionScheme(depth=len(lengths), same_atom_mask=same_atom_mask, name=name)
