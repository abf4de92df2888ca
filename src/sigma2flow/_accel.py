"""Kernel backend selection.

The Jacobi sweep loop of ``symfun`` compiles with numba when it is importable
and ``SIGMA2_NUMBA`` is not set to ``0``; otherwise the same code runs as
plain Python.  ``SIGMA2_THREADS`` caps the numba thread pool (the sweep is
serial by design, the cap is honored for forward compatibility).

Results are bit-reproducible per backend; the two may differ in the last ulp.
"""

from __future__ import annotations

import os

USE_NUMBA = os.environ.get("SIGMA2_NUMBA", "1") != "0"

if USE_NUMBA:
    try:
        import numba
    except ImportError:  # pragma: no cover - depends on environment
        USE_NUMBA = False

if USE_NUMBA:
    _threads = os.environ.get("SIGMA2_THREADS")
    if _threads:
        try:
            numba.set_num_threads(max(1, int(_threads)))
        except ValueError:
            pass

    def jit(fn):
        return numba.njit(cache=True)(fn)

else:

    def jit(fn):
        return fn


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
