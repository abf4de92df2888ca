import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2flow.symfun import (
    JACOBI_TOL,
    dsigma2,
    elementary_symmetric,
    garding_pairing,
    in_gamma_k_plus,
    jacobi_eigenvalues,
    maclaurin_lower_bound,
    newton_transform,
    sigma2_stable,
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
                    abs(sigma_k_minors(a, 2) - s_eig) / scale,
                    abs(sigma2_stable(a) - s_eig) / scale)
    assert worst < 1e-10


def test_sigma_k_accepts_eigenvalue_vector():
    assert sigma_k(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)
    assert sigma_k(np.array([1.0, 2.0, 3.0]), 0) == 1.0
    with pytest.raises(ValueError):
        sigma_k(np.array([1.0, 2.0]), 3)


def test_sigma_k_minors_matches_det_and_trace():
    rng = np.random.default_rng(5)
    a = _random_symmetric(rng, 5)
    assert sigma_k_minors(a, 1) == pytest.approx(np.trace(a))
    assert sigma_k_minors(a, 5) == pytest.approx(np.linalg.det(a))
    assert sigma_k_minors(a, 0) == 1.0
    assert sigma_k_minors(a, 3) == pytest.approx(sigma_k(a, 3), rel=1e-12)


def test_sigma2_stable_near_cancellation():
    # sigma_2 ~ 1e-12 while sigma_1^2 ~ 1: the plain trace formula would lose
    # every significant digit
    w = np.array([0.5, 0.5, -0.25 + 1e-12 / 0.75])
    a = np.diag(w)
    expected = float(elementary_symmetric(w)[2])
    assert sigma2_stable(a) == pytest.approx(expected, rel=1e-6)


def test_gamma_cone_membership():
    assert in_gamma_k_plus(np.array([1.0, 1.0, 1.0]), 2)
    assert not in_gamma_k_plus(np.zeros(3), 1)
    assert not in_gamma_k_plus(np.array([3.0, -1.0, -1.0]), 2)
    assert in_gamma_k_plus(np.array([3.0, 1.0, -0.5]), 2)
    assert not in_gamma_k_plus(np.array([3.0, 1.0, -0.5]), 3)
    assert in_gamma_k_plus(np.eye(4), 4)


@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_gamma_2_cone_is_a_cone(m, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m)
    if in_gamma_k_plus(w, 2):
        assert in_gamma_k_plus(2.5 * w, 2)
        assert not in_gamma_k_plus(-w, 2)


def test_newton_transform_euler_identity():
    # <T_1(A), A> = 2 sigma_2(A)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = _random_symmetric(rng, 5)
        lhs = float(np.sum(newton_transform(a) * a))
        assert lhs == pytest.approx(2.0 * sigma_k(a, 2), rel=1e-10, abs=1e-10)


def test_dsigma2_matches_finite_differences():
    rng = np.random.default_rng(17)
    a = _random_symmetric(rng, 4)
    grad = dsigma2(a)
    h = 1e-6
    for i in range(4):
        for j in range(4):
            da = np.zeros((4, 4))
            da[i, j] = da[j, i] = h
            fd = (sigma_k(a + da, 2) - sigma_k(a - da, 2)) / (2 * h)
            # symmetric perturbation moves two entries at once off-diagonal
            expect = grad[i, j] * (1.0 if i == j else 2.0)
            assert fd == pytest.approx(expect, rel=1e-6, abs=1e-6)


def test_garding_pairing_bound_and_equality_case():
    rng = np.random.default_rng(19)
    found = 0
    while found < 25:
        a = _random_symmetric(rng, 4) + 2.0 * np.eye(4)
        b = _random_symmetric(rng, 4) + 2.0 * np.eye(4)
        if not (in_gamma_k_plus(a, 2) and in_gamma_k_plus(b, 2)):
            continue
        found += 1
        pairing, bound = garding_pairing(a, b)
        assert bound > 0.0
        assert pairing >= bound * (1.0 - 1e-12)
    pairing, bound = garding_pairing(a, 3.0 * a)
    assert pairing == pytest.approx(bound, rel=1e-12)


def test_garding_pairing_rejects_cone_exterior():
    good = 2.0 * np.eye(3)
    bad = np.diag([1.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        garding_pairing(bad, good)
    with pytest.raises(ValueError):
        garding_pairing(good, bad)
    with pytest.raises(ValueError):
        garding_pairing(good, np.eye(4))


def test_maclaurin_constant():
    assert maclaurin_lower_bound(5) == pytest.approx(math.sqrt(10.0) * 0.8, rel=1e-15)
    assert maclaurin_lower_bound(9) == pytest.approx(math.sqrt(36.0) * 8.0 / 9.0, rel=1e-15)
    with pytest.raises(ValueError):
        maclaurin_lower_bound(1)


def test_maclaurin_bounds_trace_of_sqrt_sigma2_gradient():
    # tr d(sigma_2^{1/2}) = (n-1) sigma_1 / (2 sqrt(sigma_2)) >= c_n on Gamma_2^+
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 8))
        w = rng.standard_normal(n) + 1.0
        if not in_gamma_k_plus(w, 2):
            continue
        checked += 1
        s1 = float(elementary_symmetric(w)[1])
        s2 = float(elementary_symmetric(w)[2])
        trace_grad = (n - 1) * s1 / (2.0 * math.sqrt(s2))
        assert trace_grad >= maclaurin_lower_bound(n) * (1.0 - 1e-12)


def test_jacobi_tolerance_constant_is_tight():
    assert 0.0 < JACOBI_TOL <= 1e-12
