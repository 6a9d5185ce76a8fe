"""Every function and method defined in src/chaoslab is called by some
golden command, or stands in the allow-list below with the reason it is
kept. A library helper that no command reaches fails here.

The golden argv run in process under `sys.setprofile`, after every
package-level cache is cleared so that a cached function runs its body
whatever ran before; each call is keyed by its code object's (file, first
line, name) and matched to the `ast` defs, whose first line is the first
decorator's, as in `co_firstlineno`.
"""
import ast
import os
import sys
from pathlib import Path

import chaoslab
from test_golden import GOLDEN, artifact_bytes

SRC = Path(chaoslab.__file__).resolve().parent

UNREACHED = {
    "blocks.word_from_free_words":
        "pulls an image-side track back through pi for the product-to-zero-entropy transfer",
    "cli.load_config": "config files are pinned by GOLDEN_CONFIG, not GOLDEN",
    "cli._parse_with_config": "config files are pinned by GOLDEN_CONFIG, not GOLDEN",
    "cli._Parser.error": "usage errors; no golden command makes one",
    "cli.main": "the console entry point around run",
    "cli._comma_list": "builds the list parsers at import, before the profile is set",
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


def test_every_library_def_is_reached_or_allowed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, module in list(sys.modules.items()):
        if name.startswith("chaoslab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        for cmd in GOLDEN:
            artifact_bytes(cmd.split(), tmp_path, capsys)
    finally:
        sys.setprofile(None)
    called = {(os.path.realpath(file), line, name) for file, line, name in calls}
    unreached = {
        f"{path.stem}.{qualname}"
        for path in sorted(SRC.glob("*.py"))
        for (line, name), qualname in defs(path).items()
        if (str(path), line, name) not in called
    }
    assert unreached == set(UNREACHED)
