"""Command-line front end.

Subcommands: pair, phi, classify, scan, forge, entropy, pipka, count-ball,
verify. Every artifact embeds the resolved run configuration and seeds in a
'#' comment header, is written atomically (temp + rename) and contains no
timestamps, so re-running a command reproduces the file byte for byte.

Exit codes: 0 success, 1 usage error, 2 invariant violation detected in
outputs, 3 window/enumeration guard exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import blocks as bl
from . import classify as cl
from . import density as de
from . import entropy as en
from . import systems as sy
from .errors import (
    ChaoslabError,
    GuardExceeded,
    InvariantViolation,
    SchemeError,
    UsageError,
    ValidationError,
)
from .svgplot import render_phi_svg

# dotted config keys; each sets the flag whose dest is its last part
CONFIG_KEYS = (
    "thresholds.tau_one", "thresholds.tau_zero", "thresholds.eta_min", "thresholds.gap",
    "thresholds.burn_in",
    "run.horizon", "run.seed", "run.seed2", "run.metric", "run.q", "run.out", "run.format",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the spec wants 1
        raise UsageError(message)


def load_config(path: str | Path) -> dict[str, str]:
    """Plain-text `key = value` lines, '#' comments, dotted keys, read into
    {dest: value text}. Unknown keys are hard errors (with a suggestion);
    `run` checks the values with the parser, as it does the flags."""
    overrides = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("=") != 1:
            raise UsageError(f"{path}:{lineno}: expected a single 'key = value'")
        key, value = (part.strip() for part in line.split("="))
        if not key or not value:
            raise UsageError(f"{path}:{lineno}: malformed 'key = value' line")
        if key not in CONFIG_KEYS:
            hint = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}{suffix}")
        overrides[key.rsplit(".", 1)[1]] = value
    return overrides


def atomic_write(path: str | Path, text: str | Iterable[str]) -> None:
    """Replace `path` with `text` (one string, or chunks streamed in order)
    through a uniquely named temp file in the same directory: concurrent
    writers never share a temp file, and a failed write, including one raised
    while producing a chunk, leaves neither a temp file nor a changed old
    file. The result gets the mode a plain write would give (0o666 minus the
    umask)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _text(value) -> str:
    """The text of an artifact value, header or cell: blank for None, a
    tuple's values joined by commas, anything else as `str` writes it (for
    a float that is `repr`, the shortest decimal that reads back)."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return str(value)


def write_csv(path, lines: Sequence[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the `#` lines, the column names and `rows`, each a sequence of
    values written through `_text`, as one string: every caller writes a
    short table (the pair dump streams through `_pair_chunks`)."""
    cells = (",".join(map(_text, row)) for row in rows)
    atomic_write(path, "\n".join([*lines, ",".join(header), *cells]) + "\n")


# A pair dump is formatted this many rows at a time (read at call time): each
# of a tent block's uint64 temporaries then holds about 256 KB and stays in
# cache, the fastest of 2^13..2^16 on 250k tent rows (2 vCPUs, numpy 2.4)
CSV_BLOCK_ROWS = 1 << 14


def _pair_chunks(lines: Sequence[str], pair: sy.OrbitPair) -> Iterator[str]:
    """The text of a pair dump in blocks of CSV_BLOCK_ROWS rows: `n`, both
    symbol tracks (blank without one) and, when the pair has reals, both
    real tracks, each written as `repr` writes it. A block is one uint8
    matrix, a row per line: every cell right-aligned behind NUL padding in
    its field, then its `,` or newline; the block's text is the matrix with
    the NULs dropped."""
    a, b = pair.a, pair.b
    reals = a.reals is not None
    header = ["n", "x_symbol", "y_symbol"] + (["x_real", "y_real"] if reals else [])
    yield "\n".join([*lines, ",".join(header)]) + "\n"
    for start in range(0, pair.horizon, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, pair.horizon)
        ints = [np.arange(start + 1, stop + 1, dtype=np.int64),
                *(None if t.symbols is None else np.asarray(t.symbols[start:stop], np.int64)
                  for t in (a, b))]
        widths = [_decimal_width(v) for v in ints]
        total = sum(widths) + len(widths)
        if reals:
            xy = np.stack([a.reals[start:stop], b.reals[start:stop]], axis=1)
            digits, places, other = _shortest_decimals(xy)
            texts = [repr(v) for v in xy[other].tolist()]
            real = max([2 + int(places.max()), *map(len, texts)])  # "0." and the places
            total += 2 * (real + 1)
        cells = np.zeros((stop - start, total), np.uint8)
        at = 0
        for values, width, end in zip(ints, widths, ",,," if reals else ",,\n"):
            if values is not None:
                _decimal_cells(cells[:, at : at + width], values)
            cells[:, at + width] = ord(end)
            at += width + 1
        if reals:
            fields = cells[:, at:].reshape(stop - start, 2, real + 1)  # x, y: a view
            fields[..., :2] = np.frombuffer(b"0.", np.uint8)
            _decimal_cells(fields[..., 2:real], digits, places)
            fields[other, :real] = np.array(texts, f"S{real}").view(np.uint8).reshape(-1, real)
            fields[..., real] = np.frombuffer(b",\n", np.uint8)
        yield cells[cells != 0].tobytes().decode("ascii")


def _decimal_width(values: np.ndarray | None) -> int:
    """The field width of non-negative integer `values`: the digits of the
    largest; 0 without values."""
    return 0 if values is None else len(str(values.max()))


def _decimal_cells(out: np.ndarray, values: np.ndarray, digits=1) -> None:
    """Write non-negative integer `values` into the last axis of the zeroed
    `out`: each one's decimal digits, right-aligned behind NUL padding and
    zero-padded to at least `digits` digits (so the units digit of a 0 by
    default). The digits are laid out one place per row, each row
    contiguous, and moved into `out` in one copy."""
    places = np.zeros((out.shape[-1], *values.shape), np.uint8)
    _place_rows(places, values, digits)
    out[...] = np.moveaxis(places, 0, -1)


def _place_rows(rows: np.ndarray, left: np.ndarray, digits) -> None:
    """Fill `rows`, the last one the units, with the decimal digits of the
    non-negative `left` (NUL where a value has none), zero-padded to
    `digits` digits."""
    top = left.max()
    if top >> 32:  # split off the low nine digits: narrow ints divide faster
        high = left // 10**9
        _place_rows(rows[-9:], left - high * 10**9, np.where(high > 0, 9, np.minimum(digits, 9)))
        _place_rows(rows[:-9], high, np.maximum(np.subtract(digits, 9), 0))
        return
    left = left.astype(np.min_scalar_type(top))
    for place, row in enumerate(rows[::-1]):
        shown = (left > 0) | (place < np.asarray(digits))
        if not shown.any():
            break
        rest = left // 10
        row[...] = (left - rest * 10 + ord("0")) * shown
        left = rest


# 17 significant digits of a float in [1e-4, 1) take at most 20 places
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _shortest_decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimal that reads back as each float64 of `x`, as `repr`
    writes it: (digits, places, other), where a cell not in `other` is `0.`
    and `digits` zero-padded to `places`. `other` marks the cells to leave
    to `repr`: 0.0, anything outside [1e-4, 1) (exponent notation or an
    integer part), exact powers of two (whose rounding interval is uneven)
    and exact ties, where `repr` rounds half to even.

    x = m / 2^q with m the 53-bit significand, and the reals that read back
    as x are those strictly within 2^-(q+1) of it (the bounds are never
    decimals, as (2m +- 1) 5^K is odd). At K places, 17 significant digits,
    the bounds times 10^K are L, U = (2m -+ 1) 5^K / 2^(q-K+1), at least 1
    apart. Dropping t places still reads back while some multiple of 10^t
    lies between them, that is while floor(L / 10^t) != floor(U / 10^t);
    the cell is then the nearest decimal at K - t places (Steele & White
    1990, Adams 2018)."""
    shape = x.shape
    x = np.ascontiguousarray(x, np.float64).ravel()
    bits = x.view(np.uint64)
    fraction = bits & np.uint64((1 << 52) - 1)
    other = ~((x >= 1e-4) & (x < 1)) | (fraction == 0)
    m = fraction | np.uint64(1 << 52)
    # the cells left to repr get the exponent of [0.5, 1): shifts stay in range
    q = np.where(other, 53, 1075 - (bits >> np.uint64(52)).astype(np.int64))
    # the float thresholds lie above 10^-j with no float between, so these
    # compares count the zeros after the point exactly
    places = 17 + (x < 0.1) + (x < 0.01) + (x < 0.001)
    lower, _ = _times_pow5(2 * m - np.uint64(1), places, q - places + 1)
    upper, _ = _times_pow5(2 * m + np.uint64(1), places, q - places + 1)
    shorter = np.ones(len(x), bool)
    while True:
        lower //= np.uint64(10)
        upper //= np.uint64(10)
        shorter &= lower != upper
        if not shorter.any():
            break
        places -= shorter
    digits, rest = _times_pow5(m, places, q - places)
    half = np.uint64(1) << (q - places - 1).astype(np.uint64)
    digits += rest > half
    other |= rest == half
    digits[other] = 0
    places[other] = 0
    return digits.reshape(shape), places.reshape(shape), other.reshape(shape)


def _times_pow5(n: np.ndarray, k: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(n 5^k / 2^shift), n 5^k mod 2^shift), exact for n < 2^54,
    k <= 20 and 0 < shift < 64: the product is held as two uint64 words,
    summed from 32-bit limbs."""
    p = _POW5[k]
    shift = shift.astype(np.uint64)
    nh, nl = n >> np.uint64(32), n & _LOW32
    ph, pl = p >> np.uint64(32), p & _LOW32
    low = nl * pl
    mid = nh * pl + nl * ph
    carry = (low >> np.uint64(32)) + (mid & _LOW32)
    low = (low & _LOW32) | (carry << np.uint64(32))
    high = nh * ph + (mid >> np.uint64(32)) + (carry >> np.uint64(32))
    quotient = (high << (np.uint64(64) - shift)) | (low >> shift)
    return quotient, low & ((np.uint64(1) << shift) - np.uint64(1))


# --- argument plumbing --------------------------------------------------------


def _seed(text: str) -> int:
    """A seed: numpy's SeedSequence takes non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _comma_list(cast):
    """An argparse type: a comma-separated list of `cast` values, as a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(map(cast, text.split(",")))
        except ValueError:
            message = f"{text!r} is not a comma-separated list of {cast.__name__}s"
            raise argparse.ArgumentTypeError(message) from None

    return parse


_ints, _floats = _comma_list(int), _comma_list(float)


def _positive(text: str) -> int:
    """A size (a horizon, a burn-in, a count of trajectories or pairs): at
    least 1."""
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return size


def _add_system(p: _Parser, pair: bool) -> None:
    """The system and sampling flags; `pair` adds the second seed and the
    witness pairs, which only the one-pair commands read."""
    p.add_argument(
        "--system",
        choices=("full-shift", "tent", "logistic", "odometer", "zero-entropy"),
        default="full-shift",
    )
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--probs", type=_floats, default=None, help="comma-separated symbol weights")
    p.add_argument("--param", type=float, default=None, help="interval-map parameter")
    p.add_argument("--coding-depth", type=int, default=1)
    p.add_argument("--base", type=_ints, default=None, help="odometer base, comma-separated")
    p.add_argument("--q", type=_ints, default=None, help="q-schedule, comma-separated")
    p.add_argument("--horizon", type=_positive, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    if pair:
        p.add_argument("--seed2", type=_seed, default=None)
        p.add_argument("--witness", choices=sy.WITNESS_TARGETS, default=None)


def _add_profile(p: _Parser, thresholds: bool) -> None:
    """The flags of a Phi profile; `thresholds` adds those of its verdict."""
    p.add_argument("--metric", choices=sy.METRICS, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=_positive, default=None)
    if thresholds:
        p.add_argument("--tau-one", dest="tau_one", type=float, default=None)
        p.add_argument("--tau-zero", dest="tau_zero", type=float, default=None)
        p.add_argument("--eta-min", dest="eta_min", type=float, default=None)
        p.add_argument("--gap", type=float, default=None)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing fills a fresh
    Namespace each call and never changes the parser, so `run` shares it.
    Each subcommand takes only the flags its handler reads."""
    parser = _Parser(prog="chaoslab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, out: bool = True) -> _Parser:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        if out:
            p.add_argument("--out", default=None, help="output path")
        return p

    _add_system(command("pair"), pair=True)

    p = command("phi")
    p.add_argument("--format", choices=("csv", "svg"), default=None)
    _add_system(p, pair=True)
    _add_profile(p, thresholds=False)

    p = command("classify")
    _add_system(p, pair=True)
    _add_profile(p, thresholds=True)
    p.add_argument("--depth", type=int, default=3, help="partition scheme depth")

    p = command("scan")
    _add_system(p, pair=False)
    _add_profile(p, thresholds=True)
    p.add_argument("--count", type=_positive, default=8, help="number of trajectories")
    p.add_argument(
        "--target", choices=("li_yorke", "dc1", "dc1half", "dc2", "dc3"), default="dc2"
    )
    p.add_argument("--allow-empty", action="store_true")

    p = command("forge")
    p.add_argument("--q", type=_ints, default="2,2,2", help="q-schedule, comma-separated")
    p.add_argument("--dump", choices=("params", "blocks", "point"), default="params")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--markers", action="store_true", help="include the marker row")

    p = command("entropy")
    p.add_argument("--q", type=_ints, default="2,2,2", help="q-schedule, comma-separated")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--horizon", type=_positive, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--word-len", dest="word_len", type=int, default=8)
    p.add_argument("--stride", type=int, default=1)

    p = command("pipka")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--card", type=int, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", type=_floats, default=None)

    p = command("count-ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--a0", default="zeros", help="zeros|alternating|explicit bits")
    p.add_argument("--eps", type=float, default=0.005)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--card", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.01)

    p = command("verify", out=False)
    p.add_argument(
        "--suite",
        choices=("params", "pi-bijection", "percentage", "entropy-zero", "scheme"),
        required=True,
    )
    p.add_argument("--q", type=_ints, default="2,2,2", help="q-schedule, comma-separated")
    p.add_argument("--seed", type=_seed, default=0, help="sampling seed")
    p.add_argument("--pairs", type=_positive, default=20)

    return parser


def _parse_with_config(parser: _Parser, args: argparse.Namespace, argv: list[str]):
    """Parse again with each config-file value as one `--flag=value` token
    in front of the command line (the `=` keeps a value such as -2,2 from
    reading as an option), so the flag's own type and choices check
    it and a command-line flag, coming later, wins. A key whose flag this
    subcommand lacks is dropped. The first parse passed the command line,
    so a usage error here comes from the file."""
    file_flags = [
        f"--{dest.replace('_', '-')}={value}"
        for dest, value in load_config(args.config).items()
        if dest in vars(args)
    ]
    try:
        return parser.parse_args([args.command, *file_flags, *argv[1:]])
    except UsageError as exc:
        raise UsageError(f"{args.config}: {exc}") from None


def _thresholds(args) -> cl.Thresholds:
    return cl.Thresholds(**{
        k: getattr(args, k)
        for k in ("tau_one", "tau_zero", "eta_min", "gap")
        if getattr(args, k) is not None
    })


def _system_spec(args) -> sy.SystemSpec:
    if args.system == "full-shift":
        # FullShift refuses arity < 2; max() keeps arity 0 from dividing first
        uniform = (1.0 / max(args.arity, 1),) * args.arity
        return sy.FullShift(args.arity, args.probs or uniform)
    if args.system in ("tent", "logistic"):
        param = args.param if args.param is not None else (2.0 if args.system == "tent" else 4.0)
        return sy.IntervalMap(args.system, param, args.coding_depth)
    if args.system == "odometer":
        if not args.base:
            raise UsageError("odometer needs --base")
        return sy.OdometerSpec(args.base)
    # zero-entropy, the last of the --system choices
    if not args.q:
        raise UsageError("zero-entropy needs --q")
    return sy.ZeroEntropy(bl.QSchedule(args.q))


def _build_pair(args) -> sy.OrbitPair:
    horizon = args.horizon if args.horizon is not None else 10000
    spec = sy.WITNESS_SPEC if args.witness else _system_spec(args)
    sy.check_metric(_metric(args), spec)
    if args.witness:
        return sy.construct_witness_pair(args.witness, horizon)
    seed = args.seed if args.seed is not None else 1
    seed2 = args.seed2 if args.seed2 is not None else seed + 1
    # a pair read under a metric keeps what the read needs; the dump keeps every track
    metric = None if args.command == "pair" else _metric(args)
    return sy.make_pair(spec, horizon, (seed, seed2), metric)


def _metric(args) -> str:  # `pair` takes no --metric
    return getattr(args, "metric", None) or "hamming-indicator"


def _profile(pair: sy.OrbitPair, args) -> de.PhiProfile:
    """The Phi profile of `pair` under `_metric` from --burn-in."""
    series = sy.distance_series(pair, _metric(args))
    return de.phi_profile(series, args.burn_in)


def _header(args, keys: Sequence[str], **extras) -> list[str]:
    """An artifact's `#` lines: the subcommand, then the flags named in `keys`
    and the `extras`, sorted by name, each written through `_text`; a value
    of None is left out."""
    values = {k: getattr(args, k) for k in keys} | extras
    return [f"# chaoslab {args.command}"] + [
        f"# {k} = {_text(v)}" for k, v in sorted(values.items()) if v is not None
    ]


PAIR_KEYS = ("system", "horizon", "seed", "seed2", "witness", "q", "base")


# --- subcommand bodies --------------------------------------------------------


def _cmd_pair(args) -> int:
    lines = _header(args, PAIR_KEYS)
    atomic_write(args.out or "pair.csv", _pair_chunks(lines, _build_pair(args)))
    return 0


def _cmd_phi(args) -> int:
    profile = _profile(_build_pair(args), args)
    if args.format == "svg":
        atomic_write(args.out or "phi.svg", render_phi_svg(profile))
        return 0
    columns = (profile.thresholds, profile.phi_star, profile.phi_lower)
    rows = list(zip(*(c.tolist() for c in columns)))
    lines = _header(args, PAIR_KEYS + ("metric", "burn_in"))
    write_csv(args.out or "phi.csv", lines, ["t", "phi_star", "phi_lower"], rows)
    return 0


def _cmd_classify(args) -> int:
    pair = _build_pair(args)
    th = _thresholds(args)
    profile = _profile(pair, args)
    verdict = cl.classify_metric_pair(profile, th)
    partition = cl.classify_partition_pair(pair, cl.cylinder_scheme(args.depth), th, args.burn_in)
    eta = verdict.separation_upper if partition.k0 is None else partition.separation_upper
    row = [0, *verdict.flags.values(), verdict.separation_threshold, eta, partition.k0]
    lines = _header(
        args, PAIR_KEYS + ("metric", "burn_in", "depth"), note="dc1 is a finite-horizon read only"
    )
    write_csv(
        args.out or "verdict.csv",
        lines,
        ["pair_id", "ly", "dc1", "dc1half", "dc2", "dc3", "s", "eta", "k0"],
        [row],
    )
    return 0


def _cmd_scan(args) -> int:
    spec = _system_spec(args)
    sy.check_metric(_metric(args), spec)
    horizon = args.horizon if args.horizon is not None else 10000
    seed = args.seed if args.seed is not None else 1
    draw = sy.sample_orbit if args.metric == "absolute" else sy.sample_symbols
    trajectories = [draw(spec, horizon, seed + i) for i in range(args.count)]
    th = _thresholds(args)

    def scrambled(pair: sy.OrbitPair) -> bool:
        return cl.classify_metric_pair(_profile(pair, args), th).flags[args.target]

    # a single trajectory has no pairs; it is a clique of one, as is any
    # vertex of a graph without edges, which --allow-empty writes as none
    clique = cl.scan_scrambled_set(cl.all_pairs(trajectories), scrambled) or [0]
    if len(clique) == 1 and args.allow_empty:
        clique = []
    lines = _header(args, ("system", "horizon", "seed", "count", "target", "metric"))
    write_csv(args.out or "clique.csv", lines, ["trajectory_id"], [[i] for i in clique])
    return 0


def _check_count_digits(schedule: bl.QSchedule) -> None:
    """Refuse the largest block count 2^p_K before it is built when it has more
    decimal digits than str() allows (sys.get_int_max_str_digits(), read now;
    0 is no limit): 2^p has more than L digits exactly when p >= bitlen(10^L)."""
    limit, p = sys.get_int_max_str_digits(), schedule.p(schedule.depth)
    if limit and p >= (10**limit).bit_length():
        raise GuardExceeded(f"block count 2^{p} has more than {limit} decimal digits")


def _cmd_forge(args) -> int:
    schedule = bl.QSchedule(args.q)
    lines = _header(args, ("dump", "level", "q", "seed"))
    out = args.out or f"forge-{args.dump}.csv"
    if args.dump == "params":
        _check_count_digits(schedule)
        rows = [dataclasses.astuple(p) for p in bl.derive_params(schedule)]
        write_csv(out, lines, ["k", "q_k", "p_k", "N_k", "lenB", "count"], rows)
        return 0
    if args.dump == "blocks":
        level = args.level if args.level is not None else schedule.depth
        family = np.asarray(bl.enumerate_family(schedule, level), np.uint8)
        suffix = "\n"
        if args.markers:
            marks = bl.marker_row(schedule, schedule.n(level))
            suffix = " " + _text(tuple(marks.tolist())) + suffix
        # one byte row per block: its digits, then the suffix shared by all
        rows = np.empty((len(family), family.shape[1] + len(suffix)), np.uint8)
        rows[:, : family.shape[1]] = family + ord("0")
        rows[:, family.shape[1] :] = np.frombuffer(suffix.encode(), np.uint8)
        atomic_write(out, "\n".join(lines) + "\n" + rows.tobytes().decode("ascii"))
        return 0
    # point dump: marker row and binary row of one sampled point
    seed = args.seed if args.seed is not None else 1
    word = bl.sample_point(schedule, seed)
    lines.append(_text(("offset", word.offset)))
    lines.append(_text(("markers", *word.markers.tolist())))
    lines.append("binary," + "".join(map(_text, word.binary.tolist())))
    atomic_write(out, "\n".join(lines) + "\n")
    return 0


def _cmd_entropy(args) -> int:
    schedule = bl.QSchedule(args.q)
    lines = _header(args, ("empirical", "horizon", "q", "seed", "word_len", "stride"))
    out = args.out or "entropy.csv"
    if not args.empirical:
        _check_count_digits(schedule)
        report = en.block_count_entropy(
            (schedule.family_size(k), schedule.n(k)) for k in range(1, schedule.depth + 1)
        )
        rows = [
            [k, count, length, rate]
            for k, ((count, length), rate) in enumerate(zip(report.levels, report.rates), 1)
        ]
        write_csv(out, lines, ["k", "count", "length", "bits_per_symbol"], rows)
        return 0
    horizon = args.horizon if args.horizon is not None else 100000
    seed = args.seed if args.seed is not None else 1
    track = bl.sample_point(schedule, seed, horizon, offset=0).symbol_track(horizon)
    fair = _fair_bits(seed, horizon)
    rows = [
        [source, args.word_len, args.stride, horizon,
         en.empirical_cylinder_entropy(symbols, args.word_len, args.stride)]
        for source, symbols in (("marker-block", track), ("iid-fair-bits", fair))
    ]
    write_csv(out, lines, ["source", "word_len", "stride", "horizon", "bits_per_symbol"], rows)
    return 0


def _fair_bits(seed: int, horizon: int) -> np.ndarray:
    """The iid fair bits of `entropy --empirical`, as uint8, drawn
    en.WINDOW_CHUNK at a time: chunked draws of integers(0, 2) are the
    stream that one draw of the whole horizon gives."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    bits = np.empty(horizon, np.uint8)
    for start in range(0, horizon, en.WINDOW_CHUNK):
        chunk = bits[start : start + en.WINDOW_CHUNK]  # a view
        chunk[...] = rng.integers(0, 2, chunk.size)
    return bits


def _cmd_pipka(args) -> int:
    params = en.solve_pipka(args.eta, args.h, args.card, args.eps_grid or en.DEFAULT_EPS_GRID)
    row = [params.eta, params.h, params.card_p, params.m, params.eps, params.margin,
           params.feasible]
    write_csv(
        args.out or "pipka.csv",
        _header(args, ("eta", "h", "card", "eps_grid")),
        ["eta", "h", "card", "m", "eps", "margin", "feasible"],
        [row],
    )
    return 0


def _cmd_count_ball(args) -> int:
    if args.a0 == "zeros":
        a0 = "0" * args.n
    elif args.a0 == "alternating":
        a0 = ("01" * args.n)[: args.n]
    else:
        a0 = args.a0
    if len(a0) != args.n:
        raise ValidationError("a0 must have length n")
    count = en.count_eta_ball(a0, args.m, args.eta)
    bound = en.eta_ball_bound(args.n, args.m, args.eta, args.eps, args.h, args.card, args.delta)
    # the int division is exact at any n, where 2.0**n overflows past 1023
    row = [args.n, args.m, args.eta, args.eps, args.delta, count, bound.value,
           count / (1 << args.n), bound.flag]
    write_csv(
        args.out or "count-ball.csv",
        _header(args, ("n", "m", "eta", "eps", "h", "card", "delta", "a0")),
        ["n", "m", "eta", "eps", "delta", "count", "bound", "ratio", "flag"],
        [row],
    )
    return 0


def _cmd_verify(args) -> int:
    schedule = bl.QSchedule(args.q)
    suite = args.suite
    if suite == "params":
        for p in bl.derive_params(schedule):
            if p.n_k != p.p_k * 2**p.k or p.family_size != 2**p.p_k:
                raise InvariantViolation(f"parameter identities fail at level {p.k}")
        print("params OK")
        return 0
    if suite == "pi-bijection":
        k = schedule.depth
        family = bl.enumerate_family(schedule, k)
        words = bl.pi(schedule, k, family)
        if not np.array_equal(bl.encode_block(schedule, k, words), family):
            raise InvariantViolation("encode_block(pi(C)) != C")
        # each p_k-bit word (p_k <= 16 under the enumeration guard) packs into
        # one int; the 2^p_k words are distinct exactly when every code appears
        codes = words @ (1 << np.arange(words.shape[1])[::-1])
        if not np.bincount(codes, minlength=schedule.family_size(k)).all():
            raise InvariantViolation("pi is not injective onto the word space")
        print("bijection OK")
        return 0
    if suite == "percentage":
        k = schedule.depth
        family = bl.enumerate_family(schedule, k)
        words = bl.pi(schedule, k, family)
        rng = np.random.default_rng(args.seed)
        count = min(len(family) ** 2, 400)
        i, j = rng.integers(0, len(family), (count, 2)).T
        n_k, p_k = schedule.n(k), schedule.p(k)
        # the entries, then the level-l components: N_l-blocks against
        # p_l-bit groups; the fractions agree when the counts cross-multiply
        levels = [(1, 1, "entry-level percentage not preserved")] + [
            (schedule.n(l), schedule.p(l), "component percentage not preserved")
            for l in range(1, k)
        ]
        for n_l, p_l, message in levels:
            lhs = bl.differing_components(family[i], family[j], n_l) * (p_k // p_l)
            rhs = bl.differing_components(words[i], words[j], p_l) * (n_k // n_l)
            if not np.array_equal(lhs, rhs):
                raise InvariantViolation(message)
        print("percentage OK")
        return 0
    if suite == "entropy-zero":
        from fractions import Fraction

        report = en.block_count_entropy((p.family_size, p.n_k) for p in bl.derive_params(schedule))
        for k, rate in enumerate(report.rates, start=1):
            if rate != Fraction(1, 2**k):
                raise InvariantViolation(f"entropy signature fails at level {k}")
        print("entropy-zero OK")
        return 0
    # scheme: refinement + shift-window property on sampled fiber pairs
    scheme = bl.central_block_scheme(schedule)
    rng = np.random.default_rng(args.seed)
    for trial in range(args.pairs):
        offset = int(rng.integers(0, schedule.n(schedule.depth)))
        pair = bl.fiber_pair(
            schedule, (args.seed + 2 * trial + 1, args.seed + 2 * trial + 2), offset=offset
        )
        try:
            planes = cl.same_atom_series(pair, scheme)
        except SchemeError as exc:
            raise InvariantViolation(f"refinement fails: {exc}") from None
        pos = offset + np.arange(pair.horizon)
        for k, plane in enumerate(planes, start=1):
            # the mask may change value only where the enclosing k-window does
            mask = de.unpack_times(plane, pair.horizon)
            window_id = pos // schedule.n(k)
            if np.any((mask[1:] != mask[:-1]) & (window_id[1:] == window_id[:-1])):
                raise InvariantViolation("shift-window property fails")
    print("scheme OK")
    return 0


HANDLERS = {
    "pair": _cmd_pair,
    "phi": _cmd_phi,
    "classify": _cmd_classify,
    "scan": _cmd_scan,
    "forge": _cmd_forge,
    "entropy": _cmd_entropy,
    "pipka": _cmd_pipka,
    "count-ball": _cmd_count_ball,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code. Every warning the run raises
    is printed to stderr as `warning: Category: message`, on every run and
    without a source location, so the same command gives the same stderr."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # argparse exits 0 after printing --help
                return exc.code
            if args.config:
                args = _parse_with_config(parser, args, argv)
            return HANDLERS[args.command](args)
        except (UsageError, ValidationError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except GuardExceeded as exc:
            print(f"guard exceeded: {exc}", file=sys.stderr)
            return 3
        except InvariantViolation as exc:
            print(f"invariant violation: {exc}", file=sys.stderr)
            return 2
        except ChaoslabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for w in caught:
                print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
