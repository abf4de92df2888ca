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

One routine, ``radial_schouten``, turns the derivative rows (u'', u') and
per-node tables of the background into both branches and (sigma_1, sigma_2).
The flow's velocity kernel, ``schouten_fields`` (the energies and the
divergence identity) and the comparison-metric construction all call it.

Sign and weight conventions:

    sigma_2(g)   = e^{4u} sigma_2(W)
    dvol(g)      = e^{-nu} dvol(g0)
    F2(u)        = integral e^{(4-n)u} sigma_2(W) dvol(g0)
    V_eps(u)     = integral e^{(2 eps - n)u} dvol(g0)

so ``F2`` is the sigma_2 energy of g and ``V_eps`` the regularized volume;
both are plain background integrals of pointwise expressions in u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discretize import RadialGrid, ball_radius, integrate, sphere_latitude

__all__ = [
    "RoundSphere",
    "FlatRadialBall",
    "CurvatureModel",
    "ConeViolation",
    "ConformalField",
    "SchoutenFields",
    "SchoutenTables",
    "schouten_tables",
    "schouten_inputs",
    "radial_schouten",
    "schouten_fields",
    "schouten_pointwise",
    "scale_invariant_energy",
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


class _Ball:
    """Radius grid on [0, r0] and the axis at r = 0, for the ball backgrounds."""

    def make_grid(self, num_points: int) -> RadialGrid:
        return ball_radius(self.n, num_points, self.r0)

    def lateral(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(np.abs(x) < _POLE_TOL, 1.0, x)
        return np.where(np.abs(x) < _POLE_TOL, 0.0, 1.0 / safe)

    def pole_mask(self, x):
        return np.abs(np.asarray(x, dtype=float)) < _POLE_TOL


@dataclass(frozen=True)
class FlatRadialBall(_Ball):
    """Flat ball of radius r0; the background Schouten tensor vanishes."""

    n: int
    r0: float

    def base_schouten(self, x):
        z = np.zeros(np.shape(x))
        return z, z.copy()

    def aniso_over_r2(self, x):
        return np.zeros(np.shape(x))


@dataclass(frozen=True)
class CurvatureModel(_Ball):
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

    def chi(self, x):
        x = np.asarray(x, dtype=float)
        return 1.0 - smoothstep((x - self.r_cut) / self.cut_width)

    def base_schouten(self, x):
        x = np.asarray(x, dtype=float)
        n = self.n
        core = self.delta_r * x * x * self.chi(x) / (4.0 * n * (n + 2) * (n - 1))
        return 3.0 * core, core

    def aniso_over_r2(self, x):
        x = np.asarray(x, dtype=float)
        n = self.n
        return -self.delta_r * x * x * self.chi(x) / (n * (n + 2))


# ---------------------------------------------------------------------------
# the radial Schouten routine

class SchoutenTables(NamedTuple):
    """What ``radial_schouten`` reads of one background at the nodes x."""

    mix: np.ndarray                # (2, 2): [w_r, w_t] -> [sigma_1, (n-1) (w_r + (n-2)/2 w_t)]
    lat: np.ndarray                # factor of u' in the tangential Hessian
    pole: np.ndarray               # axis nodes, where the tangential Hessian is u''
    base: np.ndarray               # (2, N) background branches s_r0, s_t0
    aniso_half: np.ndarray | None  # half the anisotropy factor of |u'|^2; None if 0


def schouten_tables(background, x) -> SchoutenTables:
    """The background's Schouten tables at the 1-d array of nodes x."""
    x = np.asarray(x, dtype=float)
    n = background.n
    aniso_half = 0.5 * np.asarray(background.aniso_over_r2(x), dtype=float)
    return SchoutenTables(
        mix=np.array([[1.0, n - 1.0], [n - 1.0, 0.5 * (n - 1.0) * (n - 2.0)]]),
        lat=np.asarray(background.lateral(x), dtype=float),
        pole=np.asarray(background.pole_mask(x), dtype=bool),
        base=np.array(background.base_schouten(x), dtype=float),
        aniso_half=aniso_half if aniso_half.any() else None,
    )


def _check_grid(grid: RadialGrid, background) -> None:
    """ValueError unless the grid has the nodes and density of
    ``background.make_grid`` at its size; checked once per grid and background."""
    if ("grid_of", background) not in grid._ops:
        own = background.make_grid(grid.num_points)
        if not (np.array_equal(grid.x, own.x) and np.array_equal(grid.density, own.density)):
            raise ValueError(f"the grid ({grid.kind}, n = {grid.n}, on [0, {grid.x[-1]:g}]) "
                             f"is not a grid of {background!r}")
        grid._ops[("grid_of", background)] = True


def schouten_inputs(grid: RadialGrid, background):
    """The grid's stencils with band rows u'', u', u' (the rows ``radial_schouten``
    reads) and the background's tables at its nodes; ValueError on another grid."""
    key = ("schouten", background)
    inputs = grid._ops.get(key)
    if inputs is None:
        _check_grid(grid, background)
        st, rows = grid.stencils, [1, 0, 0]
        inputs = (st._replace(band=st.band[rows], closure_coef=st.closure_coef[rows]),
                  schouten_tables(background, grid.x))
        grid._ops[key] = inputs
    return inputs


#: signs of |u'|^2 / 2 in the radial and tangential Schouten branches
_HALF_GRAD_SIGNS = np.array([[0.5], [-0.5]])


def radial_schouten(tables: SchoutenTables, d, sigma=None):
    """Both Schouten branches and (sigma_1, sigma_2), from derivative rows.

    ``d`` is a (3, N) float array with rows u'', u', u' at the tables'
    nodes.  Its second row becomes the tangential Hessian ``u' * lateral``,
    which at an axis node is u'' (L'Hopital on 0 * inf).  sigma_1 and sigma_2
    go to the (2, N) buffer ``sigma``, or a new one.  sigma_2 is the product
    form (n-1) w_t (w_r + (n-2)/2 w_t) - var/2, which avoids the cancellation
    of the trace formula near the cone boundary.  Returns ``(w, sigma)``.
    """
    upp, tang, up = d[0], d[1], d[2]   # indexing: unpacking d iterates, slower
    tang *= tables.lat
    np.copyto(tang, upp, where=tables.pole)
    up2 = up * up
    w = up2 * _HALF_GRAD_SIGNS
    w += d[:2]
    w += tables.base
    if sigma is None:
        sigma = np.empty_like(w)
    np.matmul(tables.mix, w, out=sigma)
    sigma[1] *= w[1]
    if tables.aniso_half is not None:
        sigma[1] -= up2 * tables.aniso_half
    return w, sigma


def _branches(tables: SchoutenTables, d):
    """``radial_schouten`` on the rows d as (w_r, w_t, var, sigma_1, sigma_2),
    with var = |u'|^2 times the anisotropy factor (zeros without one)."""
    w, (s1, s2) = radial_schouten(tables, d)
    up, aniso = d[2], tables.aniso_half
    var = np.zeros(up.shape) if aniso is None else (up * up) * (2.0 * aniso)
    return w[0], w[1], var, s1, s2


def schouten_pointwise(background, x, up, upp):
    """Radial/tangential Schouten branches from analytic derivatives at the
    nodes x (an array, or one node), by ``radial_schouten``.  Returns
    ``(w_r, w_t, var)`` in the shape of x."""
    d = np.array([upp, up, up], dtype=float).reshape(3, -1)
    w_r, w_t, var, _, _ = _branches(schouten_tables(background, np.ravel(x)), d)
    return tuple(a.reshape(np.shape(x)) for a in (w_r, w_t, var))


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
    """Differentiate u on the grid and evaluate both Schouten branches, by
    ``radial_schouten`` on the grid's cached tables, as the flow kernel does."""
    u = np.asarray(u, dtype=float)
    stencils, tables = schouten_inputs(grid, background)
    d = stencils.apply(u)
    return SchoutenFields(grid, u, d[2], d[0], *_branches(tables, d))


# ---------------------------------------------------------------------------
# functionals

def functional_F2(grid: RadialGrid, background, u) -> float:
    """The sigma_2 energy F2 of e^{-2u} g0, by the trapezoid rule."""
    f = schouten_fields(grid, background, u)
    n = background.n
    return integrate(grid, np.exp((4.0 - n) * f.u) * f.sigma2)


def functional_V(grid: RadialGrid, background, u, eps: float) -> float:
    """V_eps of e^{-2u} g0 by the trapezoid rule; ValueError on another grid."""
    _check_grid(grid, background)
    u = np.asarray(u, dtype=float)
    n = background.n
    return integrate(grid, np.exp((2.0 * eps - n) * u))


def scale_invariant_energy(f2: float, volume: float, n: int, eps: float = 0.0) -> float:
    """F2 / V_eps^{(n-4)/(n-2 eps)}, invariant under u -> u + const.

    NaN where F2 or the volume is not finite (F2 / inf**x is a finite 0);
    at 2 eps = n, where no power of V_eps (the plain volume) makes F2
    invariant; and where the volume's power is 0, inf or past the float
    range, where a Python float power raises.
    """
    if not (math.isfinite(f2) and math.isfinite(volume)):
        return math.nan
    try:
        scale = volume ** ((n - 4.0) / (n - 2.0 * eps))
    except ArithmeticError:  # 2 eps = n, 0 to a negative power, overflow
        return math.nan
    return f2 / scale if 0.0 < scale < math.inf else math.nan


def normalized_F2(grid: RadialGrid, background, u, eps: float = 0.0) -> float:
    """``scale_invariant_energy`` of u: F2 / V_eps^{(n-4)/(n-2 eps)}, at the
    default eps = 0 the plain volume normalization F2 / V_0^{(n-4)/n}."""
    f2 = functional_F2(grid, background, u)
    return scale_invariant_energy(f2, functional_V(grid, background, u, eps),
                                  background.n, eps)


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
    if not grid.right_even:
        raise ValueError("the divergence identity needs a grid without a boundary; "
                         "its right end must be an axis")
    n = background.n
    f = schouten_fields(grid, background, u)
    ew = np.exp((4.0 - n) * f.u)
    grad2 = f.up * f.up
    s_r0, s_t0 = schouten_inputs(grid, background)[1].base

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
