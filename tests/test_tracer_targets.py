"""The benchmark's span tracer (`perfbench/tracer.py`, imported read-only)
still finds the layers it targets: a function in `src/` renamed or deleted
under a traced name fails here, where the benchmark would only report it
as absent. Small `scan`, `classify` and `verify --suite scheme` jobs run
in process under the tracer."""
import importlib.util
import sys
from pathlib import Path

import chaoslab.cli as cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the targets that name functions the package no longer has
ABSENT = [
    "_kernels.tent_orbit",
    "_kernels.logistic_orbit",
    "density.empirical_density",
    "density.DistanceSeries.below",
    "density.besicovitch_bounds",
    "_kernels.window_mismatch_counts",
    "blocks.inverse_pi",
]

JOBS = [
    ["scan", "--count", "4", "--horizon", "2000", "--metric", "cantor", "--out", "clique.csv"],
    ["classify", "--horizon", "2000", "--depth", "3", "--out", "verdict.csv"],
    ["verify", "--suite", "scheme", "--q", "2,2,2", "--pairs", "3"],
]


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_its_targets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        codes = [cli.run(argv) for argv in JOBS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = tracer.reduce()
    assert codes == [0, 0, 0]
    assert {k: v for k, v in layers.items() if k.endswith(".errors") and v} == {}
    assert tracer.absent == ABSENT
    # one checked same-atom stack per classified pair: classify's one pair
    # and the three pairs of the scheme suite
    assert layers["classify.same_atom_series.calls"] == 4
    assert layers["classify.scan_scrambled_set.pairs"] == 6
    assert layers["systems.sample_orbit.calls"] == 4 + 2
