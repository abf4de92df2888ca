"""Elementary symmetric functions of symmetric matrices.

Everything here works on small dense symmetric matrices (the radial solvers
use closed diagonal forms instead and never route through this module).
Eigenvalues come from a hand-rolled cyclic Jacobi iteration so that results
are bit-reproducible across platforms; no LAPACK call sits on that path.  The
sweep loop is the one hot spot — cross-check harnesses push thousands of
matrices through it — so it runs on plain Python floats, which do the same
IEEE arithmetic several times faster than numpy scalars.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

__all__ = [
    "jacobi_eigenvalues",
    "elementary_symmetric",
    "sigma_k",
    "sigma_k_minors",
]

#: the Jacobi iteration stops once a sweep finds every off-diagonal entry at
#: or below JACOBI_TOL times the largest entry magnitude of the input
JACOBI_TOL = 1e-13
#: and after JACOBI_MAX_SWEEPS (> 0) sweeps in any case; random symmetric
#: matrices of order 2 to 8 settle within 7
JACOBI_MAX_SWEEPS = 60


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    """``a`` as a float array, if it is square, finite and symmetric.

    Symmetric means ``max |a - a^T| <= 1e-12 (1 + max |a|)``.  A NaN or an
    infinite entry is rejected before that test: max |a| is then NaN or inf.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    if not np.abs(a - a.T).max() <= 1e-12 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    return a


def _jacobi_sweeps(a, tol: float) -> None:
    # Entries are only compared in magnitude, against the largest entry and
    # against the diagonal; no entry that may be negligible is squared, so the
    # sweep is scale-free and raises nothing spurious under strict
    # floating-point error modes.  ``a`` is a list of float lists.
    n = len(a)
    scale = 0.0
    for i in range(n):
        for j in range(n):
            x = abs(a[i][j])
            if x > scale:
                scale = x
    floor = tol * scale
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                g = abs(apq)
                if g <= floor:
                    continue
                app = a[p][p]
                aqq = a[q][q]
                # Rutishauser's rule: an entry negligible against both
                # diagonal entries could not move either; drop it
                g = 100.0 * g
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    a[p][q] = 0.0
                    a[q][p] = 0.0
                    continue
                rotated = True
                theta = (aqq - app) / (2.0 * apq)
                at = abs(theta)
                # sqrt(theta^2 + 1) rounds to |theta| above 1e8 and to 1
                # below 1e-8, so neither extreme is squared
                if at > 1e8:
                    t = 0.5 / at
                    c = 1.0
                else:
                    if at < 1e-8:
                        t = 1.0 / (at + 1.0)
                    else:
                        t = 1.0 / (at + math.sqrt(at * at + 1.0))
                    c = 1.0 / math.sqrt(t * t + 1.0)
                if theta < 0.0:
                    t = -t
                s = t * c
                shift = t * apq
                a[p][p] = app - shift
                a[q][q] = aqq + shift
                a[p][q] = 0.0
                a[q][p] = 0.0
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp = a[k][p]
                    akq = a[k][q]
                    x = c * akp - s * akq
                    y = s * akp + c * akq
                    a[k][p] = x
                    a[p][k] = x
                    a[k][q] = y
                    a[q][k] = y
        if not rotated:
            break


def jacobi_eigenvalues(a, tol: float = JACOBI_TOL) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps run in a fixed row-major order over the strict upper triangle, so
    the result is deterministic.  An off-diagonal entry at or below ``tol``
    times the largest entry magnitude is left alone, and one negligible
    against both of its diagonal entries is set to zero without a rotation
    (Rutishauser's rule); iteration stops after the first sweep that rotates
    nothing, or after ``JACOBI_MAX_SWEEPS`` sweeps.  With ``tol = 0`` only
    the second rule applies.  Entries are compared in magnitude and never
    squared, so scaling the input by ``c`` scales the eigenvalues by ``c``,
    down to scales at which ``tol`` times the largest entry underflows.
    Returns the eigenvalues sorted ascending.
    """
    a = _check_symmetric(a)
    if a.shape[0] == 1:
        return a[0, :1].copy()
    rows = a.tolist()
    _jacobi_sweeps(rows, float(tol))
    return np.sort(np.array([rows[i][i] for i in range(len(rows))]))


def elementary_symmetric(w) -> np.ndarray:
    """All elementary symmetric polynomials e_0..e_n of the entries of ``w``.

    Built by multiplying out prod_i (x + w_i) one root at a time; the update
    order is fixed, so this is deterministic.
    """
    w = np.asarray(w, dtype=float)
    e = np.zeros(w.size + 1)
    e[0] = 1.0
    for i, wi in enumerate(w):
        for j in range(i + 1, 0, -1):
            e[j] += wi * e[j - 1]
    return e


def sigma_k(a, k: int) -> float:
    """sigma_k of a symmetric matrix, through its Jacobi eigenvalues.

    Takes a matrix only; the sigma_k of a vector of eigenvalues is entry k
    of ``elementary_symmetric``.
    """
    w = jacobi_eigenvalues(a)
    if not 0 <= k <= w.size:
        raise ValueError(f"k={k} out of range for size {w.size}")
    return float(elementary_symmetric(w)[k])


def sigma_k_minors(a, k: int) -> float:
    """sigma_k as the sum of all k-by-k principal minors.

    Independent of the eigenvalue route; the two must agree to 1e-10 on
    well-scaled input, which the test-suite checks on random matrices.
    """
    a = _check_symmetric(a)
    n = a.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for size {n}")
    if k == 0:
        return 1.0
    if k == 1:
        return float(np.trace(a))
    idx = np.array(list(combinations(range(n), k)))
    minors = a[idx[:, :, None], idx[:, None, :]]
    return float(np.add.reduce(np.linalg.det(minors)))
