"""The README's library sketch runs against the current API, its CLI
section names only flags the parser takes, and each `module.name` it
gives resolves."""
import argparse
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import chaoslab as c
from chaoslab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_SECTION = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("\n## ", 1)[0]
EXAMPLES = re.findall(r"^chaoslab .*$", CLI_SECTION, re.MULTILINE)


def test_library_sketch_runs():
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope: dict = {}
    exec(compile(code, f"{README}:Library sketch", "exec"), scope)
    assert isinstance(scope["verdict"], c.PairVerdict)
    assert scope["image"].shape == (scope["q"].p(3),)
    atoms = scope["atoms"]
    assert isinstance(atoms, np.ndarray) and atoms.dtype == bool
    assert atoms.shape == (scope["fiber"].horizon,)


@pytest.mark.parametrize("line", EXAMPLES)
def test_cli_example_parses(line):
    # parsed, not run: a flag its subcommand lacks raises UsageError
    build_parser().parse_args(shlex.split(line)[1:])


def test_flag_table_matches_parser():
    table = CLI_SECTION.split("Flags by subcommand.", 1)[1]
    documented = {
        name: set(re.findall(r"`(--[a-z0-9-]+)`", cell))
        for name, cell in re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", table, re.MULTILINE)
    }
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


def test_module_names_resolve():
    # a backticked `module.name` in the README is an attribute of that
    # module, so a deletion or rename in src/ that leaves the README stale
    # fails here
    names = re.findall(
        r"`(systems|density|classify|blocks|entropy|cli)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)",
        README.read_text(encoding="utf-8"),
    )
    assert names
    for module, dotted in names:
        value = importlib.import_module(f"chaoslab.{module}")
        for part in dotted.split("."):
            assert hasattr(value, part), f"{module}.{dotted}"
            value = getattr(value, part)
