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
import difflib
import functools
import itertools
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
    UsageError,
    ValidationError,
)
from .svgplot import render_phi_svg

# dotted config keys -> (argparse dest, parser)
CONFIG_KEYS = {
    "thresholds.tau_one": ("tau_one", float),
    "thresholds.tau_zero": ("tau_zero", float),
    "thresholds.eta_min": ("eta_min", float),
    "thresholds.gap": ("gap", float),
    "thresholds.eta_grid": ("eta_grid", str),
    "thresholds.burn_in": ("burn_in", int),
    "run.horizon": ("horizon", int),
    "run.seed": ("seed", int),
    "run.seed2": ("seed2", int),
    "run.metric": ("metric", str),
    "run.q": ("q", str),
    "run.out": ("out", str),
    "run.format": ("format", str),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the spec wants 1
        raise UsageError(message)


def load_config(path: str | Path) -> dict:
    """Plain-text `key = value` lines, '#' comments, dotted keys. Unknown
    keys are hard errors (with a suggestion); values are parsed per key."""
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
        dest, cast = CONFIG_KEYS[key]
        try:
            overrides[dest] = cast(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
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


CSV_BLOCK_ROWS = 1 << 16


def write_csv(
    path, lines: Sequence[str], header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write the `#` lines, the column names and `rows`, each a sequence of
    already formatted cell strings. Rows are joined and streamed to disk in
    blocks of CSV_BLOCK_ROWS lines, so the whole text never sits in memory."""
    atomic_write(path, _csv_chunks(lines, header, rows))


def _csv_chunks(lines: Sequence[str], header: Sequence[str], rows) -> Iterator[str]:
    yield "\n".join([*lines, ",".join(header)]) + "\n"
    rows = iter(rows)
    while block := list(map(",".join, itertools.islice(rows, CSV_BLOCK_ROWS))):
        yield "\n".join(block) + "\n"


class _PairRows:
    """The rows of a pair dump, formatted a column at a time: `n`, both
    symbol tracks and, when the pair has reals, both real tracks. Sized (its
    length is the horizon) and iterable any number of times."""

    def __init__(self, pair: sy.OrbitPair):
        self.pair = pair
        self.header = ["n", "x_symbol", "y_symbol"]
        if pair.a.reals is not None:
            self.header += ["x_real", "y_real"]

    def __len__(self) -> int:
        return self.pair.horizon

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        a, b = self.pair.a, self.pair.b
        columns = [
            map(str, range(1, self.pair.horizon + 1)),
            _symbol_column(a.symbols),
            _symbol_column(b.symbols),
        ]
        if a.reals is not None:
            columns += [map(repr, a.reals.tolist()), map(repr, b.reals.tolist())]
        return zip(*columns)


def _symbol_column(track: np.ndarray | None) -> Iterable[str]:
    """Each symbol's decimal name, looked up in a table over [min, max]
    (cheaper than `str` per cell); a track without symbols is blank."""
    if track is None:
        return itertools.repeat("")
    track = np.asarray(track, dtype=np.int64)
    lo, hi = int(track.min()), int(track.max())
    if hi - lo >= track.size:  # a sparse range: the table would outgrow the track
        return map(str, track.tolist())
    names = [str(v) for v in range(lo, hi + 1)]
    return map(names.__getitem__, (track - lo).tolist())


# --- argument plumbing --------------------------------------------------------


def _add_system(p: _Parser, pair: bool) -> None:
    """The system and sampling flags; `pair` adds the second seed and the
    witness pairs, which only the one-pair commands read."""
    p.add_argument(
        "--system",
        choices=("full-shift", "tent", "logistic", "odometer", "zero-entropy"),
        default="full-shift",
    )
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--probs", default=None, help="comma-separated symbol weights")
    p.add_argument("--param", type=float, default=None, help="interval-map parameter")
    p.add_argument("--coding-depth", type=int, default=1)
    p.add_argument("--base", default=None, help="odometer base, comma-separated")
    p.add_argument("--q", default=None, help="q-schedule, comma-separated")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    if pair:
        p.add_argument("--seed2", type=int, default=None)
        p.add_argument("--witness", choices=sy.WITNESS_TARGETS, default=None)


def _add_profile(p: _Parser, thresholds: bool) -> None:
    """The flags of a Phi profile; `thresholds` adds those of its verdict."""
    p.add_argument("--metric", choices=sy.METRICS, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    if thresholds:
        p.add_argument("--tau-one", dest="tau_one", type=float, default=None)
        p.add_argument("--tau-zero", dest="tau_zero", type=float, default=None)
        p.add_argument("--eta-min", dest="eta_min", type=float, default=None)
        p.add_argument("--gap", type=float, default=None)
        p.add_argument("--eta-grid", dest="eta_grid", default=None)


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
    p.add_argument("--count", type=int, default=8, help="number of trajectories")
    p.add_argument(
        "--target", choices=("li_yorke", "dc1", "dc1half", "dc2", "dc3"), default="dc2"
    )
    p.add_argument("--allow-empty", action="store_true")

    # --q, and verify's --seed, default to None so that a config file's value
    # applies; _q and _cmd_verify then fill in 2,2,2 and 0
    p = command("forge")
    p.add_argument("--q", default=None, help="q-schedule, comma-separated (2,2,2)")
    p.add_argument("--dump", choices=("params", "blocks", "point"), default="params")
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--markers", action="store_true", help="include the marker row")

    p = command("entropy")
    p.add_argument("--q", default=None, help="q-schedule, comma-separated (2,2,2)")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--word-len", dest="word_len", type=int, default=8)
    p.add_argument("--stride", type=int, default=1)

    p = command("pipka")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--card", type=int, required=True)
    p.add_argument("--eps-grid", dest="eps_grid", default=None)

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
    p.add_argument("--q", default=None, help="q-schedule, comma-separated (2,2,2)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (0)")
    p.add_argument("--pairs", type=int, default=20)

    return parser


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """CLI flags beat config-file values beat defaults (None placeholders). A
    key whose flag this subcommand lacks is ignored."""
    if args.config:
        for dest, value in load_config(args.config).items():
            if dest in vars(args) and getattr(args, dest) is None:
                setattr(args, dest, value)
    return args


def _numbers(text: str, cast) -> tuple:
    """A comma-separated list of `cast` values; a malformed one is a usage error."""
    try:
        return tuple(cast(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{text!r} is not a comma-separated list of {cast.__name__}s") from None


def _q(args) -> str:
    """The q-schedule of forge, entropy and verify: --q or run.q, else 2,2,2."""
    return "2,2,2" if args.q is None else args.q


def _thresholds(args) -> cl.Thresholds:
    kwargs = {
        k: getattr(args, k)
        for k in ("tau_one", "tau_zero", "eta_min", "gap", "burn_in")
        if getattr(args, k) is not None
    }
    if args.eta_grid is not None:
        kwargs["eta_grid"] = _numbers(args.eta_grid, float)
    return cl.Thresholds(**kwargs)


def _system_spec(args) -> sy.SystemSpec:
    if args.system == "full-shift":
        probs = _numbers(args.probs, float) if args.probs else (1.0 / args.arity,) * args.arity
        return sy.FullShift(args.arity, probs)
    if args.system in ("tent", "logistic"):
        param = args.param if args.param is not None else (2.0 if args.system == "tent" else 4.0)
        return sy.IntervalMap(args.system, param, args.coding_depth)
    if args.system == "odometer":
        if not args.base:
            raise UsageError("odometer needs --base")
        return sy.OdometerSpec(_numbers(args.base, int))
    if args.system == "zero-entropy":
        if not args.q:
            raise UsageError("zero-entropy needs --q")
        return sy.ZeroEntropy(bl.QSchedule(_numbers(args.q, int)))
    raise UsageError(f"unknown system {args.system!r}")


def _build_pair(args) -> sy.OrbitPair:
    horizon = args.horizon if args.horizon is not None else 10000
    if args.witness:
        return sy.construct_witness_pair(args.witness, horizon)
    spec = _system_spec(args)
    seed = args.seed if args.seed is not None else 1
    seed2 = args.seed2 if args.seed2 is not None else seed + 1
    return sy.make_pair(spec, horizon, (seed, seed2))


def _profile(pair: sy.OrbitPair, args, policy: de.CheckpointPolicy) -> de.PhiProfile:
    """The Phi profile of `pair` under --metric (Hamming indicator by default)."""
    series = sy.distance_series(pair, args.metric or "hamming-indicator")
    return de.phi_profile(series, policy=policy)


def _header(args, keys: Sequence[str], **extras) -> list[str]:
    """An artifact's `#` lines: the subcommand, then the flags named in `keys`
    and the `extras`, sorted by name; a value of None is left out."""
    values = {k: getattr(args, k) for k in keys} | extras
    return [f"# chaoslab {args.command}"] + [
        f"# {k} = {values[k]}" for k in sorted(values) if values[k] is not None
    ]


PAIR_KEYS = ("system", "horizon", "seed", "seed2", "witness", "q", "base")


# --- subcommand bodies --------------------------------------------------------


def _cmd_pair(args) -> int:
    rows = _PairRows(_build_pair(args))
    write_csv(args.out or "pair.csv", _header(args, PAIR_KEYS), rows.header, rows)
    return 0


def _cmd_phi(args) -> int:
    profile = _profile(_build_pair(args), args, de.CheckpointPolicy(burn_in=args.burn_in))
    if args.format == "svg":
        atomic_write(args.out or "phi.svg", render_phi_svg(profile))
        return 0
    rows = [
        [repr(float(t)), repr(float(s)), repr(float(l))]
        for t, s, l in zip(profile.thresholds, profile.phi_star, profile.phi_lower)
    ]
    lines = _header(args, PAIR_KEYS + ("metric", "burn_in"))
    write_csv(args.out or "phi.csv", lines, ["t", "phi_star", "phi_lower"], rows)
    return 0


def _cmd_classify(args) -> int:
    pair = _build_pair(args)
    th = _thresholds(args)
    profile = _profile(pair, args, th.policy())
    verdict = cl.classify_metric_pair(profile, th)
    flags = verdict.flags
    eta = repr(verdict.separation_upper)
    k0 = ""
    if args.depth and pair.a.symbols is not None:
        partition = cl.classify_partition_pair(pair, cl.cylinder_scheme(args.depth), th)
        if partition.k0 is not None:
            eta = repr(partition.separation_upper)
            k0 = str(partition.k0)
    row = [
        "0",
        *(str(flags[k]) for k in ("li_yorke", "dc1", "dc1half", "dc2", "dc3")),
        "" if verdict.separation_threshold is None else repr(verdict.separation_threshold),
        eta,
        k0,
    ]
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
    if args.count < 1:
        raise UsageError("count must be >= 1")
    spec = _system_spec(args)
    horizon = args.horizon if args.horizon is not None else 10000
    seed = args.seed if args.seed is not None else 1
    trajectories = [sy.sample_orbit(spec, horizon, seed + i) for i in range(args.count)]
    common = min(t.horizon for t in trajectories)
    trajectories = [sy.truncate_trajectory(t, common) for t in trajectories]
    th = _thresholds(args)
    policy = th.policy()

    def scrambled(pair: sy.OrbitPair) -> bool:
        return cl.classify_metric_pair(_profile(pair, args, policy), th).flags[args.target]

    if args.count == 1:  # no pairs: the one trajectory is a clique of one
        clique = [] if args.allow_empty else [0]
    else:
        clique = cl.scan_scrambled_set(
            cl.all_pairs(trajectories), scrambled, singleton_if_empty=not args.allow_empty
        )
    lines = _header(args, ("system", "horizon", "seed", "count", "target", "metric"))
    write_csv(args.out or "clique.csv", lines, ["trajectory_id"], [[str(i)] for i in clique])
    return 0


def _cmd_forge(args) -> int:
    q = _q(args)
    schedule = bl.QSchedule(_numbers(q, int))
    lines = _header(args, ("dump", "level", "seed"), q=q)
    out = args.out or f"forge-{args.dump}.csv"
    if args.dump == "params":
        rows = [
            [str(v) for v in (p.k, p.q_k, p.p_k, p.n_k, p.b_length, p.family_size)]
            for p in bl.derive_params(schedule)
        ]
        write_csv(out, lines, ["k", "q_k", "p_k", "N_k", "lenB", "count"], rows)
        return 0
    if args.dump == "blocks":
        level = args.level if args.level is not None else schedule.depth
        digits = np.asarray(bl.enumerate_family(schedule, level), np.uint8) + ord("0")
        suffix = ""
        if args.markers:
            marks = bl.marker_row(schedule, 0, schedule.n(level))
            suffix = " " + ",".join(str(int(v)) for v in marks)
        lines.extend(row.tobytes().decode() + suffix for row in digits)
        atomic_write(out, "\n".join(lines) + "\n")
        return 0
    # point dump: marker row and binary row of one sampled point
    seed = args.seed if args.seed is not None else 1
    word = bl.sample_point(schedule, seed)
    lines.append("offset," + str(word.offset))
    lines.append("markers," + ",".join(str(int(v)) for v in word.markers))
    lines.append("binary," + "".join(str(int(b)) for b in word.binary))
    atomic_write(out, "\n".join(lines) + "\n")
    return 0


def _cmd_entropy(args) -> int:
    q = _q(args)
    schedule = bl.QSchedule(_numbers(q, int))
    lines = _header(args, ("empirical", "horizon", "seed", "word_len", "stride"), q=q)
    out = args.out or "entropy.csv"
    if not args.empirical:
        report = en.block_count_entropy(
            (schedule.family_size(k), schedule.n(k)) for k in range(1, schedule.depth + 1)
        )
        rows = [
            [str(k + 1), str(count), str(length), str(rate)]
            for k, ((count, length), rate) in enumerate(zip(report.levels, report.rates))
        ]
        write_csv(out, lines, ["k", "count", "length", "bits_per_symbol"], rows)
        return 0
    horizon = args.horizon if args.horizon is not None else 100000
    if horizon < 1:
        raise UsageError("horizon must be >= 1")
    seed = args.seed if args.seed is not None else 1
    blocks = -(-horizon // schedule.n(schedule.depth))
    track = bl.sample_point(schedule, seed, offset=0, blocks=blocks).symbol_track(horizon)
    fair = np.random.default_rng(np.random.SeedSequence(seed)).integers(0, 2, horizon)
    rows = [
        [source, str(args.word_len), str(args.stride), str(horizon),
         repr(en.empirical_cylinder_entropy(symbols, args.word_len, args.stride))]
        for source, symbols in (("marker-block", track), ("iid-fair-bits", fair))
    ]
    write_csv(out, lines, ["source", "word_len", "stride", "horizon", "bits_per_symbol"], rows)
    return 0


def _cmd_pipka(args) -> int:
    grid = _numbers(args.eps_grid, float) if args.eps_grid else en.DEFAULT_EPS_GRID
    params = en.solve_pipka(args.eta, args.h, args.card, grid)
    row = [
        str(params.eta),
        str(params.h),
        str(params.card_p),
        str(params.m) if params.m is not None else "",
        str(params.eps) if params.eps is not None else "",
        repr(params.margin) if params.margin is not None else "",
        str(params.feasible),
    ]
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
    experiment = en.run_counting_experiment(
        args.n,
        args.m,
        args.eta,
        args.eps,
        args.h,
        args.card,
        args.delta,
        a0=a0,
    )
    row = [
        str(experiment.n),
        str(experiment.m),
        str(experiment.eta),
        str(experiment.eps),
        str(experiment.delta),
        str(experiment.count),
        repr(experiment.bound.value),
        repr(experiment.ratio_to_total),
        str(experiment.bound.flag),
    ]
    write_csv(
        args.out or "count-ball.csv",
        _header(args, ("n", "m", "eta", "eps", "h", "card", "delta", "a0")),
        ["n", "m", "eta", "eps", "delta", "count", "bound", "ratio", "flag"],
        [row],
    )
    return 0


def _cmd_verify(args) -> int:
    schedule = bl.QSchedule(_numbers(_q(args), int))
    seed = 0 if args.seed is None else args.seed
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
        if not np.array_equal(bl.inverse_pi(schedule, k, words), family):
            raise InvariantViolation("inverse_pi(pi(C)) != C")
        if len(np.unique(words, axis=0)) != schedule.family_size(k):
            raise InvariantViolation("pi is not injective onto the word space")
        print("bijection OK")
        return 0
    if suite == "percentage":
        k = schedule.depth
        family = bl.enumerate_family(schedule, k)
        words = bl.pi(schedule, k, family)
        rng = np.random.default_rng(seed)
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

        report = en.block_count_entropy(
            (schedule.family_size(k), schedule.n(k)) for k in range(1, schedule.depth + 1)
        )
        for k, rate in enumerate(report.rates, start=1):
            if rate != Fraction(1, 2**k):
                raise InvariantViolation(f"entropy signature fails at level {k}")
        print("entropy-zero OK")
        return 0
    # scheme: refinement + shift-window property on sampled fiber pairs
    if args.pairs < 1:
        raise UsageError("pairs must be >= 1")
    scheme = bl.central_block_scheme(schedule)
    rng = np.random.default_rng(seed)
    for trial in range(args.pairs):
        offset = int(rng.integers(0, schedule.n(schedule.depth)))
        pair = bl.fiber_pair(
            schedule, (seed + 2 * trial + 1, seed + 2 * trial + 2), offset=offset
        )
        masks = [scheme.same_atom_mask(pair, k) for k in range(1, schedule.depth + 1)]
        for coarse, fine in zip(masks, masks[1:]):
            if np.any(fine & ~coarse):
                raise InvariantViolation("refinement fails: same_atom(k+1) not in same_atom(k)")
        pos = offset + np.arange(pair.horizon)
        for k, mask in enumerate(masks, start=1):
            # the mask may change value only where the enclosing k-window does
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:  # argparse exits 0 after printing --help
                return exc.code
            return HANDLERS[args.command](_merge_config(args))
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
