import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigma2flow.symfun import (
    JACOBI_TOL,
    elementary_symmetric,
    jacobi_eigenvalues,
    sigma_k,
    sigma_k_minors,
)


def _random_symmetric(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    a = (q * rng.standard_normal(m)) @ q.T
    return np.ascontiguousarray(0.5 * (a + a.T))


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = _random_symmetric(rng, int(rng.integers(2, 9)))
        w = jacobi_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_jacobi_is_deterministic():
    rng = np.random.default_rng(3)
    a = _random_symmetric(rng, 6)
    w1 = jacobi_eigenvalues(a)
    w2 = jacobi_eigenvalues(a.copy())
    assert w1.tobytes() == w2.tobytes()


def test_jacobi_trivial_inputs():
    np.testing.assert_array_equal(jacobi_eigenvalues(np.zeros((4, 4))), np.zeros(4))
    np.testing.assert_array_equal(jacobi_eigenvalues([[3.0]]), [3.0])
    np.testing.assert_allclose(jacobi_eigenvalues(np.diag([2.0, -1.0, 5.0])), [-1.0, 2.0, 5.0])


def test_jacobi_near_diagonal_no_warning():
    # tiny off-diagonal entries push the rotation angle parameter past 1e150;
    # the guarded branch must not overflow
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 1] = a[1, 0] = 1e-200
    with np.errstate(all="raise"):
        w = jacobi_eigenvalues(a)
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0])


def test_jacobi_scale_invariant():
    # squaring raw entries underflows at 1e-170 and overflows at 1e160, which
    # silently returned the diagonal; the eigenvalues must scale with c
    mats = (np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([[4.0, 1.0, -2.0], [1.0, 2.0, 0.5], [-2.0, 0.5, -3.0]]))
    for a in mats:
        ref = np.linalg.eigvalsh(a)
        for c in (1e-170, 1e160):
            with np.errstate(all="raise"):
                w = jacobi_eigenvalues(c * a)
            np.testing.assert_allclose(w, c * ref, rtol=1e-12,
                                       atol=1e-12 * c * np.abs(ref).max())


def test_jacobi_tol_zero_drops_negligible_entries():
    # with no tolerance floor, Rutishauser's rule is what clears an entry that
    # is negligible against both diagonal entries; rotating it instead would
    # shift the diagonal by ~1e-400, an underflow
    a = np.diag([1.0, 2.0, 3.0])
    a[0, 1] = a[1, 0] = 1e-200
    with np.errstate(all="raise"):
        w = jacobi_eigenvalues(a, tol=0.0)
    np.testing.assert_array_equal(w, [1.0, 2.0, 3.0])
    rng = np.random.default_rng(11)
    b = _random_symmetric(rng, 6)
    ref = np.linalg.eigvalsh(b)
    np.testing.assert_allclose(jacobi_eigenvalues(b, tol=0.0), ref,
                               rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.ones((2, 3)))


def test_symmetry_check_rejects_non_finite_entries():
    # a NaN or an infinite entry, even in a symmetric pair or on the
    # diagonal, is rejected before the symmetry test
    for a in ([[1.0, math.nan], [math.nan, 1.0]],
              [[math.nan, 0.0], [0.0, 1.0]],
              [[1.0, math.inf], [math.inf, 1.0]],
              [[-math.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite entry"):
            jacobi_eigenvalues(np.array(a))
    # the symmetry tolerance is 1e-12 (1 + max |a|)
    jacobi_eigenvalues(np.array([[1.0, 2.0], [2.0 + 2e-12, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigenvalues(np.array([[1.0, 2.0], [2.0 + 4e-12, 1.0]]))


def test_elementary_symmetric_small_cases():
    e = elementary_symmetric([1.0, 2.0, 3.0])
    np.testing.assert_allclose(e, [1.0, 6.0, 11.0, 6.0])
    np.testing.assert_allclose(elementary_symmetric([]), [1.0])


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_elementary_symmetric_vs_brute_force(w):
    e = elementary_symmetric(w)
    for k in range(len(w) + 1):
        brute = sum(math.prod(c) for c in combinations(w, k))
        assert e[k] == pytest.approx(brute, rel=1e-12, abs=1e-9)


def test_sigma_k_three_routes_agree():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        a = _random_symmetric(rng, int(rng.integers(2, 9)))
        s_eig = float(elementary_symmetric(jacobi_eigenvalues(a))[2])
        scale = max(1.0, abs(s_eig))
        worst = max(worst,
                    abs(sigma_k(a, 2) - s_eig) / scale,
                    abs(sigma_k_minors(a, 2) - s_eig) / scale)
    assert worst < 1e-10


def test_sigma_k_of_diagonal_matrices():
    # the sigma_k of eigenvalues is that of their diagonal matrix, and entry
    # k of elementary_symmetric; sigma_k takes a matrix only
    assert sigma_k(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)
    assert sigma_k(np.diag([1.0, 2.0, 3.0]), 0) == 1.0
    assert elementary_symmetric([1.0, 2.0, 3.0])[2] == 11.0
    with pytest.raises(ValueError):
        sigma_k(np.diag([1.0, 2.0]), 3)
    with pytest.raises(ValueError, match="square matrix"):
        sigma_k(np.array([1.0, 2.0, 3.0]), 2)


def test_sigma_k_minors_matches_det_and_trace():
    rng = np.random.default_rng(5)
    a = _random_symmetric(rng, 5)
    assert sigma_k_minors(a, 1) == pytest.approx(np.trace(a))
    assert sigma_k_minors(a, 5) == pytest.approx(np.linalg.det(a))
    assert sigma_k_minors(a, 0) == 1.0
    assert sigma_k_minors(a, 3) == pytest.approx(sigma_k(a, 3), rel=1e-12)


def test_jacobi_tolerance_constant_is_tight():
    assert 0.0 < JACOBI_TOL <= 1e-12
