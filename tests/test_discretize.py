import math

import numpy as np
import pytest

from sigma2flow.discretize import (
    ball_radius,
    gauss_panels,
    integrate,
    log_edges,
    sphere_latitude,
    sphere_measure,
)


def test_sphere_measure_closed_forms():
    assert sphere_measure(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_measure(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_measure(4) == pytest.approx(8 * math.pi**2 / 3, rel=1e-15)
    assert sphere_measure(8) == pytest.approx(32 * math.pi**4 / 105, rel=1e-14)


def test_sphere_latitude_grid_shape():
    g = sphere_latitude(5, 64)
    assert g.kind == "sphere_latitude"
    assert g.n == 5
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(math.pi)
    assert g.right_even
    assert np.all(np.diff(g.x) > 0)


@pytest.mark.parametrize("n", [30, 40, 60])
def test_sphere_latitude_density_does_not_underflow(n):
    # sin(pi) is 1.2e-16, whose power underflows from n = 30 on; the pole's
    # density is exactly 0
    with np.errstate(all="raise"):
        g = sphere_latitude(n, 128)
    assert g.density[0] == g.density[-1] == 0.0
    assert np.all(g.density[1:-1] > 0.0)


def test_sphere_volume_is_exact():
    """The latitude rule integrates sin^{n-1} against smooth data to roundoff."""
    for n, vol in ((5, math.pi**3), (9, 32 * math.pi**4 / 105 * 105 / 384 * math.pi)):
        g = sphere_latitude(n, 200)
        got = integrate(g, np.ones(200))
        expected = sphere_measure(n)
        assert got == pytest.approx(expected, rel=1e-13)
    g5 = sphere_latitude(5, 200)
    assert integrate(g5, np.ones(200)) == pytest.approx(math.pi**3, rel=1e-13)


def test_sphere_latitude_polynomial_moments():
    g = sphere_latitude(5, 96)
    got = integrate(g, np.cos(g.x) ** 2)
    assert got == pytest.approx(math.pi**3 / 6, rel=1e-13)
    assert integrate(g, np.cos(g.x)) == pytest.approx(0.0, abs=1e-13)


def test_ball_grid_shape_and_convergence():
    b = ball_radius(9, 256, 0.5)
    assert b.kind == "ball_radius"
    assert b.x[0] == 0.0 and b.x[-1] == pytest.approx(0.5)
    assert not b.right_even
    exact = sphere_measure(8) * 0.5**11 / 11
    errs = []
    for num in (128, 256, 512):
        bb = ball_radius(9, num, 0.5)
        errs.append(abs(integrate(bb, bb.x**2) - exact) / exact)
    assert errs[0] < 1e-3
    # second-order volume rule: each doubling buys ~4x
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_derivative_fourth_order_on_latitude_grid():
    errs = []
    for num in (64, 128):
        g = sphere_latitude(5, num)
        u = np.cos(g.x)
        errs.append(np.abs(g.stencils.apply(u)[1] + u).max())
    assert errs[0] < 1e-6
    assert errs[0] / errs[1] > 12.0


def test_derivative_exact_on_low_degree_even_polynomials():
    # the r = 0 stencils assume even parity, so the probe must respect it; the
    # ball's outer end takes the one-sided closures
    b = ball_radius(5, 40, 1.0)
    u = 1.0 + 2.0 * b.x**2 - 0.5 * b.x**4
    du = 4.0 * b.x - 2.0 * b.x**3
    ddu = 4.0 - 6.0 * b.x**2
    up, upp = b.stencils.apply(u)
    np.testing.assert_allclose(up, du, rtol=0, atol=1e-11)
    np.testing.assert_allclose(upp, ddu, rtol=0, atol=1e-10)


@pytest.mark.parametrize("grid, width", [(sphere_latitude(5, 16), 5),
                                         (ball_radius(5, 16, 1.0), 6)])
def test_stencil_footprint_is_what_the_stencils_apply(grid, width):
    # the stencils applied to each unit vector read node j exactly where
    # the footprint says they do; a rim closure spans 6 nodes
    st = grid.stencils
    reads, span = st.footprint()
    applied = np.stack([np.any(st.apply(e) != 0.0, axis=0) for e in np.eye(grid.num_points)],
                       axis=1)
    assert np.array_equal(reads, applied)
    assert span == width


def test_gauss_panels_polynomial_and_panelled():
    assert gauss_panels(lambda x: x**3, np.array([0.0, 1.0])) == pytest.approx(0.25, rel=1e-14)
    edges = log_edges(1.0, math.e**2, 7)
    assert gauss_panels(lambda x: 1.0 / x, edges) == pytest.approx(2.0, rel=1e-14)
    assert gauss_panels(np.exp, np.array([0.0, 0.5, 1.0])) == pytest.approx(math.e - 1.0, rel=1e-14)


def test_log_edges_geometric_spacing():
    e = log_edges(1.0, 100.0, 4)
    np.testing.assert_allclose(e, [1.0, 10**0.5, 10.0, 10**1.5, 100.0], rtol=1e-14)
    ratios = e[1:] / e[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_integrate_deterministic():
    g = sphere_latitude(5, 100)
    f = np.exp(np.sin(g.x))
    assert integrate(g, f) == integrate(g, f.copy())
