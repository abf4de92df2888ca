"""Conformal geometry of rotationally symmetric metrics, reduced to 1-d.

Metrics are written ``g = e^{-2u} g0`` over a fixed radially symmetric
background ``g0``.  The conformally transformed Schouten tensor

    W = Hess(u) + du (x) du - |du|^2/2 g0 + S(g0)

then has two distinct radial eigenvalue branches: one along the radial
direction (``w_r``) and ``n-1`` equal tangential ones (``w_t``).  Everything
downstream (the sigma_2 curvature of g, the energy functionals, the flow
velocity) is built from these two fields, plus an optional tangential
Hessian anisotropy correction ``var`` used by the curvature-deficit model
background.

Sign and weight conventions:

    sigma_2(g)   = e^{4u} sigma_2(W)
    dvol(g)      = e^{-nu} dvol(g0)
    F2(u)        = integral e^{(4-n)u} sigma_2(W) dvol(g0)
    V_eps(u)     = integral e^{(2 eps - n)u} dvol(g0)

so ``F2`` is the sigma_2 energy of g and ``V_eps`` the regularized volume;
both are plain background integrals of pointwise expressions in u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import (
    RadialGrid,
    ball_radius,
    integrate,
    sphere_latitude,
)

__all__ = [
    "RoundSphere",
    "FlatRadialBall",
    "CurvatureModel",
    "ConeViolation",
    "ConformalField",
    "SchoutenFields",
    "schouten_fields",
    "schouten_pointwise",
    "sigma_pair_radial",
    "functional_F2",
    "functional_V",
    "normalized_F2",
    "divergence_identity_residual",
    "round_schouten_sigma2",
    "smoothstep",
]

_POLE_TOL = 1e-12


class ConeViolation(RuntimeError):
    """A field left the Gamma_2^+ cone (sigma_1 or sigma_2 non-positive)."""


def smoothstep(s):
    """Quintic ramp: 0 for s<=0, 1 for s>=1, C^2 across both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


@dataclass(frozen=True)
class RoundSphere:
    """Round n-sphere, latitude coordinate on [0, pi]."""

    n: int

    def make_grid(self, num_points: int) -> RadialGrid:
        return sphere_latitude(self.n, num_points)

    def base_schouten(self, x):
        half = np.full(np.shape(x), 0.5)
        return half, half.copy()

    def lateral(self, x):
        """The factor multiplying u' in the tangential Hessian (cot here)."""
        sin = np.sin(x)
        safe = np.where(np.abs(sin) < _POLE_TOL, 1.0, sin)
        return np.where(np.abs(sin) < _POLE_TOL, 0.0, np.cos(x) / safe)

    def pole_mask(self, x):
        return np.abs(np.sin(x)) < _POLE_TOL

    def aniso_over_r2(self, x):
        return np.zeros(np.shape(x))


@dataclass(frozen=True)
class FlatRadialBall:
    """Flat ball of radius r0; the background Schouten tensor vanishes."""

    n: int
    r0: float

    def make_grid(self, num_points: int) -> RadialGrid:
        return ball_radius(self.n, num_points, self.r0)

    def base_schouten(self, x):
        z = np.zeros(np.shape(x))
        return z, z.copy()

    def lateral(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(np.abs(x) < _POLE_TOL, 1.0, x)
        return np.where(np.abs(x) < _POLE_TOL, 0.0, 1.0 / safe)

    def pole_mask(self, x):
        return np.abs(np.asarray(x, dtype=float)) < _POLE_TOL

    def aniso_over_r2(self, x):
        return np.zeros(np.shape(x))


@dataclass(frozen=True)
class CurvatureModel:
    """Radially averaged curvature-deficit model on a ball.

    Encodes, to leading order in the deficit ``delta_r`` (the second radial
    derivative of the ambient scalar curvature at the center, required
    non-positive), the effect of a non-flat background on the two Schouten
    branches and on the tangential Hessian anisotropy:

        s_r(r)  = 3 delta_r r^2 chi / (4 n (n+2) (n-1))
        s_t(r)  =   delta_r r^2 chi / (4 n (n+2) (n-1))
        var     = (u'/r)^2 q,   q = - delta_r r^4 chi / (n (n+2))

    which reproduces the trace pair of the conformal-factor bubble exactly
    through the terms linear in the deficit.  ``chi`` is a quintic cutoff
    that is identically 1 below ``r_cut`` and 0 above ``r_cut + cut_width``,
    so the model agrees with the flat ball outside a compact core.
    """

    n: int
    r0: float
    delta_r: float
    r_cut: float
    cut_width: float

    def __post_init__(self):
        if self.delta_r > 0.0:
            raise ValueError("the curvature deficit must be <= 0")
        if not (0.0 < self.r_cut and self.cut_width > 0.0):
            raise ValueError("need r_cut > 0 and cut_width > 0")

    def make_grid(self, num_points: int) -> RadialGrid:
        return ball_radius(self.n, num_points, self.r0)

    def chi(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 - smoothstep((x - self.r_cut) / self.cut_width)

    def base_schouten(self, x):
        x = np.asarray(x, dtype=float)
        n = self.n
        core = self.delta_r * x * x * self.chi(x) / (4.0 * n * (n + 2) * (n - 1))
        return 3.0 * core, core

    def lateral(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(np.abs(x) < _POLE_TOL, 1.0, x)
        return np.where(np.abs(x) < _POLE_TOL, 0.0, 1.0 / safe)

    def pole_mask(self, x):
        return np.abs(np.asarray(x, dtype=float)) < _POLE_TOL

    def aniso_over_r2(self, x):
        x = np.asarray(x, dtype=float)
        n = self.n
        return -self.delta_r * x * x * self.chi(x) / (n * (n + 2))


# ---------------------------------------------------------------------------
# pointwise fields

def schouten_pointwise(background, x, u, up, upp):
    """Radial/tangential Schouten branches from analytic derivatives.

    At an axis point the tangential second fundamental term ``u' * lateral``
    degenerates to 0 * inf; by L'Hopital it equals ``u''`` there, which is
    what the pole mask substitutes.  Returns ``(w_r, w_t, var)``.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    up = np.asarray(up, dtype=float)
    upp = np.asarray(upp, dtype=float)
    s_r0, s_t0 = background.base_schouten(x)
    lat = background.lateral(x)
    pole = background.pole_mask(x)
    half_grad2 = 0.5 * up * up
    w_r = upp + half_grad2 + s_r0
    w_t = np.where(pole, upp, up * lat) - half_grad2 + s_t0
    var = up * up * background.aniso_over_r2(x)
    return w_r, w_t, var


def sigma_pair_radial(n: int, w_r, w_t, var=None):
    """sigma_1 and sigma_2 of diag(w_r, w_t, ..., w_t) (+ anisotropy).

    The product form sigma_2 = (n-1) w_t (w_r + (n-2)/2 w_t) - var/2 avoids
    the catastrophic cancellation of the trace formula near the cone
    boundary.
    """
    s1 = w_r + (n - 1) * w_t
    s2 = (n - 1) * w_t * (w_r + 0.5 * (n - 2) * w_t)
    if var is not None:
        s2 = s2 - 0.5 * np.asarray(var)
    return s1, s2


@dataclass(frozen=True)
class ConformalField:
    """A conformal factor sampled on its grid: the pair (grid, u)."""

    grid: RadialGrid
    u: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(np.asarray(self.u, dtype=float))
        if u.shape != (self.grid.num_points,):
            raise ValueError(
                f"field has {u.shape} samples for a grid of {self.grid.num_points} points")
        object.__setattr__(self, "u", u)


@dataclass
class SchoutenFields:
    """Bundle of u-derived fields on a grid, computed once and shared."""

    grid: RadialGrid
    u: np.ndarray
    up: np.ndarray
    upp: np.ndarray
    w_r: np.ndarray
    w_t: np.ndarray
    var: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray


def schouten_fields(grid: RadialGrid, background, u) -> SchoutenFields:
    """Differentiate u on the grid and evaluate both Schouten branches."""
    u = np.asarray(u, dtype=float)
    up, upp = grid.stencils.apply(u)
    w_r, w_t, var = schouten_pointwise(background, grid.x, u, up, upp)
    s1, s2 = sigma_pair_radial(background.n, w_r, w_t, var)
    return SchoutenFields(grid, u, up, upp, w_r, w_t, var, s1, s2)


# ---------------------------------------------------------------------------
# functionals

def functional_F2(grid: RadialGrid, background, u) -> float:
    """The sigma_2 energy F2 of e^{-2u} g0, by the trapezoid rule."""
    f = schouten_fields(grid, background, u)
    n = background.n
    return integrate(grid, np.exp((4.0 - n) * f.u) * f.sigma2)


def functional_V(grid: RadialGrid, background, u, eps: float) -> float:
    u = np.asarray(u, dtype=float)
    n = background.n
    return integrate(grid, np.exp((2.0 * eps - n) * u))


def normalized_F2(grid: RadialGrid, background, u, eps: float | None = None) -> float:
    """Scale-invariant sigma_2 energy.

    With ``eps`` given this is V_eps^{-(n-4)/(n-2 eps)} F2; without it the
    plain volume normalization V_0^{-(n-4)/n} F2.  Both are invariant under
    u -> u + const, which the tests check to machine precision.
    """
    n = background.n
    f2 = functional_F2(grid, background, u)
    if eps is None:
        vol = functional_V(grid, background, u, 0.0)
        return vol ** (-(n - 4.0) / n) * f2
    v = functional_V(grid, background, u, eps)
    return v ** (-(n - 4.0) / (n - 2.0 * eps)) * f2


def divergence_identity_residual(grid: RadialGrid, background, u) -> float:
    """Relative defect of the integral identity behind the energy estimates.

    For any smooth radial u (and a background without Hessian anisotropy),

        2 int sigma_2(g) dvol(g) =
            - int T^{ij} u_i u_j dvol(g)
            + (n-1)/2 int sigma_1(g) |grad u|_g^2 dvol(g)
            + int T^{ij} S(g0)_{ij} dvol(g)

    where T is the first Newton transform of the transformed Schouten
    tensor.  Discretization is the only error source, so the residual
    shrinks at the accuracy order of the stencils.  Returns
    |LHS - RHS| / (|LHS| + |RHS|).  The identity integrates by parts with
    no boundary terms, so a grid with a genuine boundary (a ball's rim) is
    rejected with ValueError.
    """
    if not (grid.left_even and grid.right_even):
        raise ValueError("the divergence identity needs a grid without a boundary; "
                         "both ends must be even")
    n = background.n
    f = schouten_fields(grid, background, u)
    ew = np.exp((4.0 - n) * f.u)
    grad2 = f.up * f.up
    s_r0, s_t0 = background.base_schouten(grid.x)

    lhs = 2.0 * integrate(grid, ew * f.sigma2)
    t_rad = (n - 1) * f.w_t                     # radial eigenvalue of T_1(W)
    t_tan = f.w_r + (n - 2) * f.w_t             # each tangential eigenvalue
    term_grad = -integrate(grid, ew * t_rad * grad2)
    term_s1 = 0.5 * (n - 1) * integrate(grid, ew * f.sigma1 * grad2)
    term_bg = integrate(grid, ew * (t_rad * s_r0 + (n - 1) * t_tan * s_t0))
    rhs = term_grad + term_s1 + term_bg
    denom = abs(lhs) + abs(rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def round_schouten_sigma2(n: int) -> float:
    """sigma_2 of the round unit sphere's Schouten tensor: n(n-1)/8."""
    return n * (n - 1) / 8.0
