"""The README's library sketch runs against the current API."""
import re
from pathlib import Path

import numpy as np

import chaoslab as c

README = Path(__file__).resolve().parent.parent / "README.md"


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
