"""Span tracing of chaoslab's layers from outside the package.

The tracer replaces each listed function with a wrapper at every place the
function object is bound: module attributes (including names imported with
``from x import f``), class attributes and the CLI's handler table. Nothing
inside the package is edited, so the traced code is the code that ships.

Spans ``(name, parent, start, end, escaped, quantities)`` are kept in a list
in memory and reduced once per traced pass; a layer's self time is its span
duration minus the durations of its direct children.
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

_now = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _windows(args, kwargs, result):
    size = len(_arg(args, kwargs, 0, "track"))
    word_len = _arg(args, kwargs, 1, "word_len")
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 1)
    return (size - word_len) // stride + 1


@dataclass(frozen=True)
class Target:
    """One traced layer function: metric prefix, module, attribute path
    (``Class.method`` for methods) and extra per-call quantities."""

    prefix: str
    module: str
    attr: str
    quantities: tuple[tuple[str, Callable], ...] = ()


# `steps`, `elems`, `masks` ... are counts of the work a call did. Metric
# names must start with a letter or digit, so `_kernels` reports as `kernels`.
TARGETS = (
    Target("systems.sample_orbit", "systems", "sample_orbit",
           (("steps", lambda a, k, r: r.horizon),)),
    Target("kernels.interval_orbit", "_kernels", "tent_orbit",
           (("steps", lambda a, k, r: len(r)),)),
    Target("kernels.interval_orbit", "_kernels", "logistic_orbit",
           (("steps", lambda a, k, r: len(r)),)),
    Target("systems.distance_series", "systems", "distance_series"),
    Target("density.phi_profile", "density", "phi_profile"),
    Target("density.empirical_density", "density", "empirical_density",
           (("checkpoints", lambda a, k, r: len(r.checkpoints)),)),
    Target("density.DistanceSeries.below", "density", "DistanceSeries.below",
           (("elems", lambda a, k, r: a[0].values.size),)),
    Target("density.besicovitch_bounds", "density", "besicovitch_bounds"),
    Target("classify.classify_metric_pair", "classify", "classify_metric_pair"),
    Target("classify.classify_partition_pair", "classify", "classify_partition_pair"),
    Target("classify.same_atom_series", "classify", "same_atom_series"),
    Target("classify.scan_scrambled_set", "classify", "scan_scrambled_set",
           (("pairs", lambda a, k, r: len(_arg(a, k, 0, "pairs"))),)),
    Target("entropy.count_eta_ball", "entropy", "count_eta_ball"),
    Target("kernels.window_mismatch_counts", "_kernels", "window_mismatch_counts",
           (("masks", lambda a, k, r: len(r)),)),
    Target("entropy.empirical_cylinder_entropy", "entropy", "empirical_cylinder_entropy",
           (("windows", _windows),)),
    Target("blocks.pi", "blocks", "pi"),
    Target("blocks.inverse_pi", "blocks", "inverse_pi"),
    Target("blocks.encode_block", "blocks", "encode_block"),
    Target("blocks.enumerate_family", "blocks", "enumerate_family"),
    Target("blocks.sample_point", "blocks", "sample_point"),
    Target("blocks.fiber_pair", "blocks", "fiber_pair"),
    Target("cli.write_csv", "cli", "write_csv",
           (("rows", lambda a, k, r: len(_arg(a, k, 3, "rows"))), ("bytes", _file_bytes))),
    Target("cli.atomic_write", "cli", "atomic_write", (("bytes", _file_bytes),)),
    Target("svgplot.render_phi_svg", "svgplot", "render_phi_svg"),
)
SUBCOMMANDS = ("pair", "phi", "classify", "scan", "forge", "entropy", "pipka",
               "count-ball", "verify")
MODULES = ("systems", "kernels", "density", "classify", "entropy", "blocks", "cli",
           "svgplot")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    names: dict[str, str] = {}
    for t in TARGETS:
        names[f"{t.prefix}.calls"] = "count"
        names[f"{t.prefix}.self_s"] = "s"
        for q, _ in t.quantities:
            names[f"{t.prefix}.{q}"] = "count"
    names["classify.scan_scrambled_set.edges"] = "count"
    for sub in SUBCOMMANDS:
        names[f"cli.{sub}.self_s"] = "s"
    for mod in MODULES:
        names[f"{mod}.errors"] = "count"
    return list(names.items())


class Tracer:
    """Install with `install()`, run one pass, `uninstall()`, then `reduce()`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self.absent: list[str] = []
        self.edges = 0

    # --- span recording -----------------------------------------------------

    def _wrap(self, prefix: str, fn: Callable, quantities=()) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            escaped = True
            start = _now()
            try:
                result = fn(*args, **kwargs)
                escaped = False
            finally:
                end = _now()
                stack.pop()
                spans[idx] = [prefix, parent, start, end, escaped, None]
            if quantities:
                spans[idx][5] = [(q, f(args, kwargs, result)) for q, f in quantities]
            return result

        return traced

    def _wrap_scan(self, fn: Callable) -> Callable:
        """scan_scrambled_set also counts the scrambled pairs (graph edges)
        through the predicate it is given."""

        def with_edges(pairs, is_scrambled, *args, **kwargs):
            def counted(pair):
                verdict = is_scrambled(pair)
                self.edges += bool(verdict)
                return verdict

            return fn(pairs, counted, *args, **kwargs)

        return with_edges

    # --- patching -----------------------------------------------------------

    def _rebind(self, orig: Callable, new: Callable) -> None:
        """Point every chaoslab module attribute bound to `orig` at `new`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "chaoslab" or name.startswith("chaoslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, orig))

    def install(self) -> None:
        self.absent = []
        for t in TARGETS:
            mod = sys.modules.get(f"chaoslab.{t.module}")
            owner, _, name = t.attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None) if holder is not None else None
            if orig is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            inner = self._wrap_scan(orig) if t.attr == "scan_scrambled_set" else orig
            new = self._wrap(t.prefix, inner, t.quantities)
            if owner:
                setattr(holder, name, new)
                self._undo.append(lambda h=holder, n=name, o=orig: setattr(h, n, o))
            else:
                self._rebind(orig, new)
        handlers = getattr(sys.modules.get("chaoslab.cli"), "HANDLERS", {})
        for sub in SUBCOMMANDS:
            orig = handlers.get(sub)
            if orig is None:
                self.absent.append(f"cli.HANDLERS[{sub}]")
                continue
            handlers[sub] = self._wrap(f"cli.{sub}", orig)
            self._undo.append(lambda s=sub, o=orig: handlers.__setitem__(s, o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- reduction ----------------------------------------------------------

    def reduce(self) -> dict[str, float]:
        """Per-layer totals of the recorded spans, then clears them. Layers
        absent from the package, or not reached, read 0."""
        names = metric_names()
        out = {name: 0.0 if unit == "s" else 0 for name, unit in names}
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (prefix, parent, start, end, escaped, qty) in enumerate(self.spans):
            out[f"{prefix}.calls"] = out.get(f"{prefix}.calls", 0) + 1
            out[f"{prefix}.self_s"] += end - start - child_time[idx]
            for q, value in qty or ():
                out[f"{prefix}.{q}"] += value
            if escaped:
                module = prefix.split(".", 1)[0]
                outer = self.spans[parent][0].split(".", 1)[0] if parent >= 0 else None
                if outer != module:
                    out[f"{module}.errors"] += 1
        out["classify.scan_scrambled_set.edges"] = self.edges
        self.spans.clear()
        self.edges = 0
        return {name: out[name] for name, _ in names}
