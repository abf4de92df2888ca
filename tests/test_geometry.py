import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma2flow.discretize import ball_radius, sphere_latitude
from sigma2flow.geometry import (
    ConformalField,
    CurvatureModel,
    FlatRadialBall,
    RoundSphere,
    divergence_identity_residual,
    functional_F2,
    functional_V,
    normalized_F2,
    round_schouten_sigma2,
    scale_invariant_energy,
    schouten_fields,
    smoothstep,
)


@pytest.fixture(scope="module")
def s5():
    return RoundSphere(5), sphere_latitude(5, 128)


def test_round_sphere_schouten_is_half(s5):
    sphere, grid = s5
    f = schouten_fields(grid, sphere, np.zeros(grid.num_points))
    np.testing.assert_allclose(f.w_r, 0.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(f.w_t, 0.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(f.var, 0.0, atol=1e-14)
    np.testing.assert_allclose(f.sigma2, 2.5, rtol=1e-13)


def test_round_schouten_sigma2_constant():
    assert round_schouten_sigma2(5) == pytest.approx(2.5, rel=1e-15)
    assert round_schouten_sigma2(9) == pytest.approx(9.0, rel=1e-15)


def test_sigma2_metric_round_value(s5):
    sphere, grid = s5
    f = schouten_fields(grid, sphere, np.zeros(grid.num_points))
    np.testing.assert_allclose(np.exp(4.0 * f.u) * f.sigma2, 2.5, rtol=1e-13)


def test_round_energy_constants(s5):
    sphere, grid = s5
    u0 = np.zeros(grid.num_points)
    assert functional_F2(grid, sphere, u0) == pytest.approx(2.5 * math.pi**3, rel=1e-13)
    assert functional_V(grid, sphere, u0, 2.0) == pytest.approx(math.pi**3, rel=1e-13)
    assert normalized_F2(grid, sphere, u0) == pytest.approx(
        2.5 * (math.pi**3) ** 0.8, rel=1e-13)
    assert normalized_F2(grid, sphere, u0) == pytest.approx(39.003151786888736, rel=1e-14)


def test_packaged_field_matches_its_samples(s5):
    sphere, grid = s5
    u = 0.2 * np.cos(grid.x)
    field = ConformalField(grid, u)
    a = schouten_fields(grid, sphere, u)
    b = schouten_fields(field.grid, sphere, field.u)
    np.testing.assert_array_equal(a.sigma2, b.sigma2)
    np.testing.assert_array_equal(
        np.exp(4.0 * a.u) * a.sigma2, np.exp(4.0 * b.u) * b.sigma2)
    assert functional_F2(grid, sphere, u) == functional_F2(field.grid, sphere, field.u)
    assert functional_V(grid, sphere, u, 1.5) == functional_V(field.grid, sphere, field.u, 1.5)
    assert normalized_F2(grid, sphere, u, 1.5) == normalized_F2(
        field.grid, sphere, field.u, 1.5)


def test_conformal_field_validates_shape(s5):
    _, grid = s5
    with pytest.raises(ValueError):
        ConformalField(grid, np.zeros(grid.num_points + 1))


def test_schouten_fields_rejects_a_field_of_another_length():
    # the padded gather would read a longer field without an error
    for background in (RoundSphere(5), FlatRadialBall(5, 1.0)):
        grid = background.make_grid(64)
        for size in (63, 65):
            with pytest.raises(ValueError, match="does not match grid"):
                schouten_fields(grid, background, np.zeros(size))


@given(st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_normalized_energy_shift_invariant(c):
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 96)
    u = 0.1 * np.cos(grid.x)
    base = normalized_F2(grid, sphere, u, eps=1.5)
    shifted = normalized_F2(grid, sphere, u + c, eps=1.5)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_normalized_energy_is_nan_where_no_volume_power_is_invariant():
    # at 2 eps = n, V_eps is the plain volume, and F2 scales alone under a shift
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 32)
    u = 0.1 * np.cos(grid.x)
    assert math.isnan(normalized_F2(grid, sphere, u, 2.5))
    assert math.isnan(scale_invariant_energy(1.0, 2.0, 5, 2.5))
    assert scale_invariant_energy(3.0, 2.0, 5, 2.0) == 2.0 ** -1.0 * 3.0


def test_scale_invariant_energy_is_nan_past_the_float_range():
    # F2 / inf**x would be a finite 0; the volume's power at exponent
    # 16/2e-7 underflows to 0 below V = 1 and overflows (and raises) above it
    for f2, volume in ((math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)):
        assert math.isnan(scale_invariant_energy(f2, volume, 9))
    for volume in (0.29, 3.0):
        assert math.isnan(scale_invariant_energy(1.0, volume, 20, 9.9999999))
    assert math.isnan(scale_invariant_energy(1.0, 0.0, 9))


def test_unnormalized_energy_scales_under_shift(s5):
    sphere, grid = s5
    u = 0.1 * np.cos(grid.x)
    c = 0.7
    f2 = functional_F2(grid, sphere, u)
    assert functional_F2(grid, sphere, u + c) == pytest.approx(
        math.exp((4 - 5) * c) * f2, rel=1e-12)
    v = functional_V(grid, sphere, u, 2.0)
    assert functional_V(grid, sphere, u + c, 2.0) == pytest.approx(
        math.exp((4 - 5) * c) * v, rel=1e-12)


def test_divergence_identity_residual_converges():
    sphere = RoundSphere(5)
    res = []
    for num in (200, 400):
        grid = sphere_latitude(5, num)
        res.append(divergence_identity_residual(grid, sphere, 0.2 * np.cos(grid.x)))
    assert res[0] < 1e-10
    assert res[0] / res[1] > 3.0


def test_divergence_identity_residual_rejects_a_grid_with_a_boundary():
    # the identity drops the boundary terms at the ball's rim, where it read
    # a meaningless 0.73 for u = 0.3 r^2
    ball = FlatRadialBall(5, 1.0)
    grid = ball.make_grid(64)
    assert not grid.right_even
    with pytest.raises(ValueError, match="without a boundary"):
        divergence_identity_residual(grid, ball, 0.3 * grid.x ** 2)


def test_flat_ball_background_is_flat():
    ball = FlatRadialBall(9, 1.0)
    r = np.linspace(0.0, 1.0, 11)
    s_r0, s_t0 = ball.base_schouten(r)
    np.testing.assert_array_equal(s_r0, np.zeros(11))
    np.testing.assert_array_equal(s_t0, np.zeros(11))
    np.testing.assert_array_equal(ball.aniso_over_r2(r), np.zeros(11))


def test_curvature_model_trace_identity():
    model = CurvatureModel(9, 2.5, -1.0, 0.12, 0.04)

    def trace(r):
        s_r0, s_t0 = model.base_schouten(r)
        return s_r0 + (model.n - 1) * s_t0

    # the radially averaged scalar curvature delta_r r^2 chi / (2n)
    def scalar_curvature(r):
        return model.delta_r * r * r * model.chi(r) / (2.0 * model.n)

    r = np.linspace(0.01, 0.3, 57)
    np.testing.assert_allclose(
        trace(r), scalar_curvature(r) / (2.0 * (model.n - 1)), rtol=1e-13, atol=1e-18)
    # the cutoff really cuts
    far = np.array([0.2, 0.5, 1.0])
    np.testing.assert_array_equal(scalar_curvature(far), np.zeros(3))
    np.testing.assert_array_equal(trace(far), np.zeros(3))
    # leading quadratic with chi = 1 inside the cut radius
    inside = np.array([0.02, 0.05])
    np.testing.assert_allclose(
        scalar_curvature(inside), -1.0 * inside**2 / (2 * 9), rtol=1e-13)


def test_curvature_model_validation():
    with pytest.raises(ValueError):
        CurvatureModel(9, 2.5, +1.0, 0.12, 0.04)
    with pytest.raises(ValueError):
        CurvatureModel(9, 2.5, -1.0, 0.0, 0.04)


def test_smoothstep_shape():
    s = np.linspace(-0.5, 1.5, 201)
    y = smoothstep(s)
    assert y[0] == 0.0 and y[-1] == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert np.all(np.diff(y) >= 0.0)
    # C^2 flat ends
    h = 1e-4
    assert abs(smoothstep(h) - 0.0) < 1e-10
    assert abs(smoothstep(1.0 - h) - 1.0) < 1e-10


def test_schouten_fields_on_ball_grid_matches_closed_form():
    """u = log(lam + r^2) over a flat ball: w_r v^2 = lam - ... has closed form."""
    lam = 1e-4
    grid = ball_radius(9, 800, 0.5)
    ball = FlatRadialBall(9, 0.5)
    u = np.log(lam + grid.x**2)
    f = schouten_fields(grid, ball, u)
    v = lam + grid.x**2
    tra = f.w_r + 8 * f.w_t
    sl = slice(100, 799)
    np.testing.assert_allclose(
        tra[sl], 2 * 9 * lam / v[sl] ** 2, rtol=5e-6)
