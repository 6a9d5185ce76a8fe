"""Interval-map iteration with a numba fast path and a pure-Python fallback.

numba is an optional extra (``pip install -e '.[numba]'``); without it the
fallback runs.

The backend is chosen at import time from the environment variable
``CHAOSLAB_BACKEND``:

* unset or ``auto`` -- use numba when importable, else numpy;
* ``numba``         -- require numba (ImportError if missing);
* ``numpy``         -- force the pure-numpy fallback.

Both paths are kept importable (``*_numpy`` / ``*_numba`` suffixes) so the
benchmark and the parity tests can compare them directly.
"""
from __future__ import annotations

import os

import numpy as np

_MODE = os.environ.get("CHAOSLAB_BACKEND", "auto").lower()
if _MODE not in ("auto", "numba", "numpy"):
    raise ValueError(f"CHAOSLAB_BACKEND must be auto|numba|numpy, got {_MODE!r}")

if _MODE == "numpy":
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _MODE == "numba":
            raise
        _HAVE_NUMBA = False

USING_NUMBA = _HAVE_NUMBA


def tent_orbit_numpy(x0: float, a: float, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    x = x0
    for i in range(n):
        out[i] = x
        x = a * (x if x < 1.0 - x else 1.0 - x)
    return out


def logistic_orbit_numpy(x0: float, r: float, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    x = x0
    for i in range(n):
        out[i] = x
        x = r * x * (1.0 - x)
    return out


if _HAVE_NUMBA:

    @njit(cache=True)
    def _tent_orbit_jit(x0, a, n):  # pragma: no cover - compiled
        out = np.empty(n, dtype=np.float64)
        x = x0
        for i in range(n):
            out[i] = x
            x = a * (x if x < 1.0 - x else 1.0 - x)
        return out

    @njit(cache=True)
    def _logistic_orbit_jit(x0, r, n):  # pragma: no cover - compiled
        out = np.empty(n, dtype=np.float64)
        x = x0
        for i in range(n):
            out[i] = x
            x = r * x * (1.0 - x)
        return out

    def tent_orbit_numba(x0: float, a: float, n: int) -> np.ndarray:
        return _tent_orbit_jit(x0, a, n)

    def logistic_orbit_numba(x0: float, r: float, n: int) -> np.ndarray:
        return _logistic_orbit_jit(x0, r, n)

else:
    tent_orbit_numba = None
    logistic_orbit_numba = None


if USING_NUMBA:
    tent_orbit = tent_orbit_numba
    logistic_orbit = logistic_orbit_numba
else:
    tent_orbit = tent_orbit_numpy
    logistic_orbit = logistic_orbit_numpy
