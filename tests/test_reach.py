"""Every function and method defined in src/chaoslab is called by some
golden command, and every field of a src/chaoslab dataclass is read by some
src/chaoslab code while they run, or stands in an allow-list below with the
reason it is kept. A library helper that no command reaches, or a field
that nothing reads, fails here.

The golden argv run once, in process, under `sys.setprofile`, after every
package-level cache is cleared so that a cached function runs its body
whatever ran before; each call is keyed by its code object's (file, first
line, name) and matched to the `ast` defs, whose first line is the first
decorator's, as in `co_firstlineno`. In the same pass each dataclass's
`__getattribute__` records a field read, made by the innermost frame outside
the standard library and outside the methods `dataclasses` generates (so
`dataclasses.astuple` counts for its caller); a read in the class's own
`__post_init__` does not count.
"""
import ast
import contextlib
import dataclasses
import functools
import importlib
import io
import os
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace

import pytest

import chaoslab
from test_golden import GOLDEN, artifact_bytes

SRC = Path(chaoslab.__file__).resolve().parent
STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"]) + os.sep

UNREACHED = {
    "blocks.word_from_free_words":
        "pulls an image-side track back through pi for the product-to-zero-entropy transfer",
    "cli.load_config": "config files are pinned by GOLDEN_CONFIG, not GOLDEN",
    "cli._parse_with_config": "config files are pinned by GOLDEN_CONFIG, not GOLDEN",
    "cli._Parser.error": "usage errors; no golden command makes one",
    "cli.main": "the console entry point around run",
    "cli._comma_list": "builds the list parsers at import, before the profile is set",
}

UNREAD_FIELDS = {
    "classify.PartitionVerdict.pk_scrambled":
        "measure-theoretic chaos; ROADMAP item 4 writes it to verdict.csv",
    "classify.PartitionVerdict.pk_plus":
        "measure-theoretic+ chaos; ROADMAP item 4 writes it to verdict.csv",
    "classify.PartitionVerdict.pk_minus":
        "ROADMAP item 20 decides between a column, --explain and deletion",
    "density.DensityEstimate.checkpoints":
        "the per-checkpoint reads of ROADMAP items 10(a) and 17",
    "classify.PartitionScheme.name": "read only in SchemeError text",
}


def defs(path: Path) -> dict[tuple[int, str], str]:
    """(first line, name) -> dotted qualified name of every def in a module."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def src_dataclasses() -> dict[type, str]:
    """Each dataclass defined in a src/chaoslab module -> its dotted name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "chaoslab" if path.stem == "__init__" else f"chaoslab.{path.stem}"
        )
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                out[value] = f"{path.stem}.{value.__qualname__}"
    return out


@functools.cache
def _real(file: str) -> str:
    return os.path.realpath(file)


def field_recorder(cls: type, dotted: str, reads: set) -> object:
    """A `__getattribute__` for `cls` that adds `dotted.field` to `reads`
    when src code reads one of its fields."""
    fields = {f.name for f in dataclasses.fields(cls)}
    post_init = getattr(getattr(cls, "__post_init__", None), "__code__", None)
    get = cls.__getattribute__

    def __getattribute__(self, name):
        key = f"{dotted}.{name}"
        if name in fields and key not in reads:
            frame = sys._getframe(1)
            while frame.f_code.co_filename == "<string>" or (
                _real(frame.f_code.co_filename).startswith(STDLIB)
            ):
                frame = frame.f_back
            code = frame.f_code
            if Path(_real(code.co_filename)).parent == SRC and code is not post_init:
                reads.add(key)
        return get(self, name)

    return __getattribute__


class _Stdout:
    """`artifact_bytes`'s capsys, over a redirected stdout, for a pass that
    runs once per module."""

    def __init__(self):
        self.buffer = io.StringIO()

    def readouterr(self):
        out = self.buffer.getvalue()
        self.buffer.seek(0)
        self.buffer.truncate()
        return SimpleNamespace(out=out)


@pytest.fixture(scope="module")
def golden_pass(tmp_path_factory):
    """(calls, reads) of one run of the golden table: the (file, first line,
    name) of every call, and the dotted name of every dataclass field that
    src code read."""
    tmp_path = tmp_path_factory.mktemp("golden")
    for name, module in list(sys.modules.items()):
        if name.startswith("chaoslab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    calls, reads = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    stdout = _Stdout()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout.buffer):
        mp.chdir(tmp_path)
        for cls, dotted in src_dataclasses().items():
            mp.setattr(cls, "__getattribute__", field_recorder(cls, dotted, reads))
        sys.setprofile(profile)
        try:
            for cmd in GOLDEN:
                artifact_bytes(cmd.split(), tmp_path, stdout)
        finally:
            sys.setprofile(None)
    return calls, reads


def test_every_library_def_is_reached_or_allowed(golden_pass):
    calls, _ = golden_pass
    called = {(os.path.realpath(file), line, name) for file, line, name in calls}
    unreached = {
        f"{path.stem}.{qualname}"
        for path in sorted(SRC.glob("*.py"))
        for (line, name), qualname in defs(path).items()
        if (str(path), line, name) not in called
    }
    assert unreached == set(UNREACHED)


def test_every_dataclass_field_is_read_or_allowed(golden_pass):
    _, reads = golden_pass
    unread = {
        f"{dotted}.{f.name}"
        for cls, dotted in src_dataclasses().items()
        for f in dataclasses.fields(cls)
    } - reads
    assert unread == set(UNREAD_FIELDS)
