"""Radial comparison-metric machinery: expansion constants, the bubble-patch
integrals, the Bernoulli gluing annulus, the slope-taper transition, and the
fully assembled patch metric with its energy margin.

The construction lives on a ball around a distinguished point of the
background.  A conformal bubble ``u = log(lam + r^2)`` occupies the core; a
gluing annulus carries the logarithmic slope ``alpha(r) = r u'(r)`` from its
bubble value (close to 2) down to a tube value ``gamma in (1,2)``; a second,
outer transition tapers the slope back to 0 and switches on the round cap
factor ``log(1 + r^2)`` so the metric closes up smoothly.  Everything is
driven by closed forms plus 1-d quadrature, so each stage can be verified
pointwise against the equations it is supposed to solve.

Two frames appear below.  Constructions are normalized so the tube is exactly
``u = gamma log r`` (zero constant); the bubble then carries the additive
constant ``b0`` and the outer cap the constant ``b1``.  All energies use

    F2  = integral e^{(4-n)u} sigma_2(W) dvol_flat,
    vol = integral e^{-n u} dvol_flat,

and ``scale_invariant_energy`` gives the scale-invariant F2 / vol^{(n-4)/n}.

Every radial profile (bubble, annulus, assembled patch) is a triple
``(u, u', u'')`` at given radii, and its energies, volumes and cone values
come from the same routines.  ``_PatchProfile`` is the one piecewise
profile, with one region dispatcher; its regions ``tube`` to ``outer`` are
the transition, and their cone minima in ``assemble_and_compare`` are its
certificate: Y2 is an infimum over metrics in Gamma_2^+, so the cone has to
hold on the glued metric.  ``_ramp``, ``_blend`` and ``_from_slope`` give
the smoothstep in r, the blend of two profiles, and a profile from its slope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .discretize import log_edges, sphere_measure
from .geometry import (
    CurvatureModel,
    FlatRadialBall,
    radial_schouten,
    scale_invariant_energy,
    schouten_tables,
    smoothstep,
)

__all__ = [
    "ConstructionError",
    "BubbleParams",
    "SphereConstants",
    "sphere_constants",
    "lemma5_integrals",
    "bernoulli_alpha",
    "bernoulli_residual",
    "GluingProfile",
    "glue_lemma6",
    "RegionReport",
    "AssembledMetric",
    "assemble_and_compare",
    "check_radii",
    "MarginSweep",
    "margin_sweep",
    "STANDARD_RADII",
    "PADDING_A",
    "CUT_RADIUS",
    "CUT_WIDTH",
]


# Frozen assembly layout (r8, r7, r6, r5, r4, r0): the slope taper runs on
# [r6, r5], the bridge to zero slope on [r5, r4], and the cap cutoff ramps on
# [r8, r7].  Chosen so the positive-margin window of the energy comparison is
# widest at lam in [1e-4, 1e-3].
STANDARD_RADII = (0.65, 0.85, 1.0, 1.15, 1.8, 2.5)

# The construction's fixed values: the padding A >= 0 of the annulus slope,
# and the cutoff of the assembly's deficit model (1 below CUT_RADIUS, 0 from
# CUT_RADIUS + CUT_WIDTH on).  The eps margin follows from gamma.
PADDING_A = 0.01
CUT_RADIUS = 0.12
CUT_WIDTH = 0.04

# Node spacing (in log r) of the antiderivative tables.  The cubic Hermite
# interpolant between nodes errs by about h^4 |f'''| / 384, which keeps the
# potentials here within about 1e-14 of a direct quadrature.
_LOG_STEP = 2.5e-4

# 3-point Gauss-Legendre rule on [0, 1] for the table intervals, and the
# 24-point rule on [-1, 1] for the energy panels (as in ``gauss_panels``)
_TAB_Z, _TAB_W = np.polynomial.legendre.leggauss(3)
_TAB_Z, _TAB_W = 0.5 * (_TAB_Z + 1.0), 0.5 * _TAB_W
_PANEL_Z, _PANEL_W = np.polynomial.legendre.leggauss(24)


class ConstructionError(RuntimeError):
    """A gluing stage failed a regime or cone constraint."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# small helpers

def _ramp(r, lo: float, width: float):
    """(S, S', S'') in r of the quintic smoothstep S((r - lo)/width): 0 up to
    lo, 1 from lo + width on, and C^2 at both ends."""
    s = np.clip((r - lo) / width, 0.0, 1.0)
    return (smoothstep(s), 30.0 * (s * (1.0 - s)) ** 2 / width,
            60.0 * s * (1.0 - 3.0 * s + 2.0 * s * s) / (width * width))


def _blend(base, step, ramp):
    """(u, u', u'') of base + S step, for profiles ``base`` and ``step`` and
    the ramp (S, S', S''), by the product rule."""
    (b, bp, bpp), (d, dp, dpp), (S, Sd, Sdd) = base, step, ramp
    return b + S * d, bp + S * dp + Sd * d, bpp + S * dpp + 2.0 * Sd * dp + Sdd * d


def _from_slope(r, w, a, ap):
    """(u, u', u'') of u = w with the logarithmic slope a = r u' and a'."""
    return w, a / r, (ap * r - a) / (r * r)


def _plus(p, q):
    """The sum of two profiles (u, u', u'')."""
    return tuple(x + y for x, y in zip(p, q))


class _Nodes(NamedTuple):
    """Table nodes ``t``, geometric on both sides of the anchor ``t[k]``; the
    interval lengths ``h``; the 3 Gauss points of every interval, one row per
    Gauss node, shape (3, t.size - 1)."""

    t: np.ndarray
    k: int
    h: np.ndarray
    points: np.ndarray


def _geometric(a: float, b: float) -> np.ndarray:
    """Nodes from a to b (both exact) whose log-spacing is at most _LOG_STEP."""
    t = np.exp(np.linspace(math.log(a), math.log(b),
                           1 + math.ceil(math.log(b / a) / _LOG_STEP)))
    t[0], t[-1] = a, b
    return t


def _table_nodes(lo: float, anchor: float, hi: float) -> _Nodes:
    left, right = _geometric(lo, anchor), _geometric(anchor, hi)
    t = np.concatenate([left, right[1:]])
    h = np.diff(t)
    return _Nodes(t, left.size - 1, h, t[:-1] + h * _TAB_Z[:, None])


def _hermite(f0, f1, d0, d1, h, s):
    """The cubic with values f0, f1 and slopes d0, d1 at the ends of an
    interval of length h, at the fraction s of the way along it."""
    return f0 + s * s * (3.0 - 2.0 * s) * (f1 - f0) + h * s * (1.0 - s) * ((1.0 - s) * d0 - s * d1)


class _Table:
    """x -> integral_anchor^x f on the range of ``nodes``; raises outside it.

    Built from the values of f at the Gauss points and at the nodes: the node
    values are Gauss-Legendre sums per interval, and between nodes a cubic
    Hermite interpolant takes the exact slope f.  ``F`` holds the node values.
    """

    def __init__(self, nodes: _Nodes, f_points, f_nodes):
        self.t, self.h = nodes.t, nodes.h
        F = np.concatenate([[0.0], np.cumsum(nodes.h * (_TAB_W @ f_points))])
        self.F = F - F[nodes.k]
        self.slope = f_nodes

    def __call__(self, r):
        t, h, F, d = self.t, self.h, self.F, self.slope
        if isinstance(r, float):
            # the same arithmetic in Python floats, without the cost of numpy
            # on 0-d arrays
            if r < t[0] or r > t[-1]:
                raise self._outside()
            i = min(int(np.searchsorted(t, r, side="right")) - 1, h.size - 1)
            return _hermite(float(F[i]), float(F[i + 1]), float(d[i]), float(d[i + 1]),
                            float(h[i]), (r - float(t[i])) / float(h[i]))
        r = np.asarray(r, dtype=float)
        if np.any(r < t[0]) or np.any(r > t[-1]):
            raise self._outside()
        i = np.minimum(np.searchsorted(t, r, side="right") - 1, h.size - 1)
        return _hermite(F[i], F[i + 1], d[i], d[i + 1], h[i], (r - t[i]) / h[i])

    def _outside(self) -> ValueError:
        return ValueError(
            f"radius outside the antiderivative table [{self.t[0]:.6g}, {self.t[-1]:.6g}]")

    def at_points(self) -> np.ndarray:
        """Values at the Gauss points of every interval, found without a search."""
        F, d = self.F, self.slope
        return _hermite(F[:-1], F[1:], d[:-1], d[1:], self.h, _TAB_Z[:, None])


def _antiderivative(f, lo: float, anchor: float, hi: float) -> _Table:
    """x -> integral_anchor^x f on [lo, hi], with table nodes geometric on
    both sides of ``anchor``."""
    nodes = _table_nodes(lo, anchor, hi)
    return _Table(nodes, f(nodes.points), f(nodes.t))


def _refine(edges: np.ndarray, per_panel: int = 33) -> np.ndarray:
    """``per_panel`` equispaced points per panel, then the last edge.

    Per panel this is the arithmetic of ``np.linspace(a, b, per_panel,
    endpoint=False)``, for all panels at once.
    """
    a = edges[:-1, None]
    step = (edges[1:, None] - a) / per_panel
    return np.append((np.arange(per_panel) * step + a).ravel(), edges[-1])


def _bubble(lam: float, r, b0: float = 0.0):
    """(u, u', u'') of the bubble u = log(lam + r^2) + b0."""
    v = lam + r * r
    return np.log(v) + b0, 2.0 * r / v, 2.0 / v - 4.0 * r * r / (v * v)


def _bubble_edges(lam: float, stop: float) -> np.ndarray:
    """Panel edges of the bubble region [0, stop]: 12 linear panels to the
    bubble's scale 2 sqrt(lam), then 48 geometric ones, or 24 linear panels
    when stop lies inside that scale."""
    sl = 2.0 * math.sqrt(lam)
    if sl < stop:
        return np.concatenate([np.linspace(0.0, sl, 13)[:-1], log_edges(sl, stop, 48)])
    return np.linspace(0.0, stop, 25)


def _cap(r):
    """(c, c', c'') of the round cap factor c = log(1 + r^2)."""
    rr = r * r
    return np.log1p(rr), 2.0 * r / (1.0 + rr), (2.0 - 2.0 * rr) / (1.0 + rr) ** 2


def _sigma_pair(r, derivs, model):
    """sigma_1(W) and sigma_2(W) of a profile with (u, u', u'') = derivs at r,
    and the Schouten tables of ``model`` at r that they come from."""
    _, up, upp = derivs
    tables = schouten_tables(model, r)
    s1, s2 = radial_schouten(tables, np.array([upp, up, up]))[1]
    return s1, s2, tables


def _cone_values(r, derivs, models):
    """(e^{2u} sigma_1, e^{4u} sigma_2), the sigma pair of the metric e^{-2u} g0,
    against each background in ``models``; e^{2u} and e^{4u} are computed once
    for all of them."""
    u = derivs[0]
    e2, e4 = np.exp(2.0 * u), np.exp(4.0 * u)
    return [(e2 * s1, e4 * s2) for s1, s2, _ in (_sigma_pair(r, derivs, m) for m in models)]


def _panel_nodes(edges):
    """Nodes and weights of the 24-point Gauss-Legendre rule on every panel."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _PANEL_Z).ravel(), (half * _PANEL_W).ravel()


def _fsum(values) -> float:
    """``math.fsum``, or the plain sum where fsum raises: on inf + -inf (nan)
    and on a finite sum past the float range (inf).  A sum that leaves the
    float range is then non-finite instead of an error."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return sum(values)


def _masses(r, weights, derivs, models, n: int, offsets):
    """Per-region quadrature sums of e^{(4-n)u} sigma_2(W) and e^{-nu} against
    |S^{n-1}| r^{n-1} dr.

    The regions lie end to end in ``r``: region k has the nodes
    ``r[offsets[k]:offsets[k+1]]``.  Returns ``(energies, volumes)``, where
    ``energies[m][k]`` is region k's energy against ``models[m]``.  The
    factors that do not depend on the background (the measure, e^{(4-n)u}
    and the volumes) are computed once for all models; each model costs one
    sigma_2 evaluation over all regions.  A region whose terms leave the
    float range has a non-finite sum.
    """
    measure = sphere_measure(n - 1) * r ** (n - 1) * weights
    u = derivs[0]
    decay = np.exp((4.0 - n) * u)
    spans = list(zip(offsets[:-1], offsets[1:]))

    def sums(terms):
        terms = terms.tolist()
        return [_fsum(terms[a:b]) for a, b in spans]

    energies = [sums(decay * _sigma_pair(r, derivs, m)[1] * measure) for m in models]
    return energies, sums(np.exp(-float(n) * u) * measure)


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class BubbleParams:
    """Scale and cutoff data of the conformal bubble core.

    ``delta_r`` is the second-order radial deficit of the ambient scalar
    curvature at the center (non-positive); it feeds the curvature model of
    module geometry.  The cutoff radius is ``lam**beta``.
    """

    n: int
    lam: float
    r0: float = 2.5
    beta: float = 0.26
    delta_r: float = 0.0

    def __post_init__(self):
        if self.n < 9:
            raise ValueError(f"need dimension n >= 9, got {self.n}")
        if not self.lam > 0.0:
            raise ValueError("need lam > 0")
        # the curvature response is read off at order lam^2
        if not sys.float_info.min <= self.lam * self.lam < math.inf:
            raise ValueError(f"lam^2 must be a normal float, got lam = {self.lam!r}")
        if not self.r0 > 0.0:
            raise ValueError("need r0 > 0")
        if not 0.25 < self.beta < 0.5:
            raise ValueError(f"beta must lie strictly in (1/4, 1/2), got {self.beta}")
        if self.delta_r > 0.0:
            raise ValueError("the curvature deficit delta_r must be <= 0")
        if self.lam ** self.beta >= self.r0:
            raise ValueError("cutoff radius lam**beta must stay inside the patch")

    @property
    def delta(self) -> float:
        return self.lam ** self.beta

    def model(self, r_cut: float | None = None, cut_width: float | None = None):
        """Background for this bubble: flat ball, or the curvature model.

        Without arguments the model is uncut (active on the whole patch);
        the assembled metric passes an explicit compact cutoff instead.
        """
        if self.delta_r == 0.0:
            return FlatRadialBall(self.n, self.r0)
        if r_cut is None:
            r_cut = 10.0 * self.r0
        if cut_width is None:
            cut_width = self.r0
        return CurvatureModel(self.n, self.r0, self.delta_r, r_cut, cut_width)


# ---------------------------------------------------------------------------
# sphere constants

@dataclass(frozen=True)
class SphereConstants:
    """The two expansion constants and the round-sphere energy level.

    ``C`` is only finite for n >= 9 (its integrand decays like y^{7-n});
    below that it is stored as None and ``require_C`` raises.
    """

    n: int
    B: float
    C: float | None
    Y2_sphere: float

    def require_C(self) -> float:
        if self.C is None:
            raise ValueError(
                f"the second expansion constant diverges for n = {self.n}: "
                "its integrand decays like y^{7-n} and is integrable only for n >= 9"
            )
        return self.C


@lru_cache(maxsize=None)
def _sphere_constants_cached(n: int) -> SphereConstants:
    b = sphere_measure(n) / 2.0 ** n
    c = None
    if n >= 9:
        # C = |S^{n-1}| [m(n+1)/(2n) + 2 m(n+3)/(n(n+2))] with the moments
        # m(a) = integral_0^inf y^a (1+y^2)^{2-n} dy
        #      = Gamma((a+1)/2) Gamma(n-2-(a+1)/2) / (2 Gamma(n-2)).
        # As m(n+3) = m(n+1) (n+2)/(n-8), this is the product below; its
        # Gamma factors are taken as logs, so none overflows at large n.
        c = (n - 4.0) / (4.0 * (n - 8.0)) * math.exp(
            0.5 * n * math.log(math.pi) + math.lgamma(0.5 * n - 3.0) - math.lgamma(n - 2.0))
    y2 = 2.0 * n * (n - 1) * b ** (4.0 / n)
    return SphereConstants(n, b, c, y2)


def _lam2_target(sc: SphereConstants, delta_r: float) -> float:
    """The lam^2 response target ``B^{(4-n)/n} C delta_r``."""
    return sc.B ** ((4.0 - sc.n) / sc.n) * sc.require_C() * delta_r


def sphere_constants(n: int) -> SphereConstants:
    """Volume constant B, curvature-response constant C, and Y2 of S^n.

        B  = integral_{R^n} (1+|x|^2)^{-n} dx
        C  = integral_{R^n} (|x|^2/(2n) + 2|x|^4/(n(n+2))) (1+|x|^2)^{2-n} dx
        Y2 = 2n(n-1) B^{4/n}

    Both come in closed form: B = vol(S^n)/2^n (stereographic projection),
    and C from the Beta-function moments of its integrand.  B is subnormal
    from n = 327 on.  From n = 331 on B^{(4-n)/n}, a factor of the lam^2
    target, overflows and Y2 drifts (4e-9 relative at n = 335, 0 from
    n = 341); such n, like n < 5, raise ValueError.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    sc = _sphere_constants_cached(int(n))
    try:
        sc.B ** ((4.0 - n) / n)  # the factor of the lam^2 target
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"the sphere constants leave the float range at n = {n}, "
                         f"where B = {sc.B!r}; n may be at most 330") from None
    return sc


# ---------------------------------------------------------------------------
# bubble-patch integrals

def lemma5_integrals(bp: BubbleParams) -> tuple[float, float]:
    """Energy and volume of the bubble over the cutoff ball B(0, lam**beta).

    Scaled by the lam-powers of the closed-form expansion, ``energy *
    lam^{n/2-2}`` tends to ``2n(n-1)B + C*delta_r*lam^2`` and ``volume *
    lam^{n/2}`` tends to ``B``; single-lam deviations are dominated by the
    cutoff remainder ~ lam^{n(1/2-beta)}, so sequence extrapolation (done in
    the tests) is needed to see the constants sharply.
    """
    n, lam = bp.n, bp.lam
    r, w = _panel_nodes(_bubble_edges(lam, bp.delta))
    [[energy]], [volume] = _masses(r, w, _bubble(lam, r), [bp.model()], n, [0, r.size])
    return energy, volume


# ---------------------------------------------------------------------------
# Bernoulli slope profile

def _bernoulli_g(t, A: float, n: int):
    """The integrand t^{-(n-6)/2} e^{n A t^2/8} of H."""
    return t ** (-0.5 * (n - 6)) * np.exp(n * A * t * t / 8.0)


def _bernoulli_h(A: float, n: int, lo: float, hi: float):
    """H(r) = -(nA/8) * integral_1^r t^{-(n-6)/2} e^{n A t^2/8} dt on [lo, hi]."""
    if A == 0.0 or lo == hi:
        return lambda r: np.zeros(np.shape(r))
    table = _antiderivative(lambda t: _bernoulli_g(t, A, n), lo, 1.0, hi)
    return lambda r: -0.125 * n * A * table(r)


def _slope(a1: float, h, factor):
    """alpha from 1/alpha = 1/2 + (a1 + H) * factor, with H at the radii and
    the slope factor r^{(n-4)/2} e^{-n A r^2 / 8}."""
    return 1.0 / (0.5 + (a1 + h) * factor)


def _slope_factor(r, A: float, n: int):
    return r ** (0.5 * (n - 4)) * np.exp(-n * A * r * r / 8.0)


def bernoulli_alpha(r, a1: float, A: float, n: int):
    """Closed-form logarithmic slope of the gluing annulus.

        1/alpha(r) = 1/2 + (a1 + H(r)) r^{(n-4)/2} e^{-n A r^2 / 8}

    with H anchored at 1 (H(1) = 0).  For A = 0 this reduces to
    ``alpha = 2/(1 + 2 a1 r^{(n-4)/2})`` exactly.  Takes an array of radii
    and returns the array of slopes.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("need r > 0")
    h = _bernoulli_h(A, n, min(float(r.min()), 1.0), max(float(r.max()), 1.0))
    alpha = _slope(a1, h(r), _slope_factor(r, A, n))
    if np.any(alpha <= 0.0) or np.any(alpha >= 2.0):
        raise ValueError("slope left the admissible band (0, 2)")
    return alpha


def bernoulli_residual(r, a1: float, A: float, n: int):
    """Defect of the slope equation, with alpha' by central differences of
    relative step 1e-6.

        residual = (n-4)/4 + (r alpha' - A r^2 alpha) / (2 alpha - alpha^2 - A r^2 alpha)

    Identically zero for the closed form; the numeric value is dominated by
    the finite-difference truncation error.
    """
    r = np.asarray(r, dtype=float)
    h = 1e-6 * r
    a_mid = bernoulli_alpha(r, a1, A, n)
    a_lo = bernoulli_alpha(r - h, a1, A, n)
    a_hi = bernoulli_alpha(r + h, a1, A, n)
    aprime = (a_hi - a_lo) / (2.0 * h)
    denom = 2.0 * a_mid - a_mid * a_mid - A * r * r * a_mid
    return 0.25 * (n - 4) + (r * aprime - A * r * r * a_mid) / denom


class _GluingCore:
    """Constructed annulus profile: slope, potential, matching constants.

    Normalization: the tube side is exactly ``u = gamma log r`` at delta1;
    the bubble ``log(lam + r^2)`` must then be shifted by ``b0`` to meet the
    annulus at delta.  Both matchings are C^1 by construction.

    H and the potential are tabled on one set of nodes on [delta/2, 1.5],
    geometric on both sides of delta; the range holds the seam windows on
    both sides of [delta, delta1].  Both tables are built in one pass from
    ``g(t) = t^{-(n-6)/2} e^{n A t^2/8}`` at the nodes and the Gauss points:
    H is integrated from delta and then shifted to vanish at 1, the anchor
    ``a1`` is reported against; its values at the Gauss points come from the
    Hermite interpolant at the fixed offsets, and the slope factor
    ``t^{(n-4)/2} e^{-n A t^2/8}`` is ``t/g(t)``.  The potential is anchored
    at delta.
    """

    def __init__(self, n: int, lam: float, beta: float, gamma: float, A: float):
        if not 1.0 < gamma < 2.0:
            raise ValueError(f"gamma must lie in (1, 2), got {gamma}")
        self.n, self.lam, self.beta, self.gamma, self.A = n, lam, beta, gamma, A
        self.delta = delta = lam ** beta
        # for lam > 1 (delta > 1) this slope is below 1, so past this check
        # delta lies inside the tables on [delta/2, 1.5]
        self.alpha_delta = alpha_delta = 2.0 * delta * delta / (lam + delta * delta)
        if alpha_delta <= gamma:
            raise ConstructionError(
                "glue", f"bubble-edge slope {alpha_delta:.4f} does not exceed gamma={gamma}")

        nodes = _table_nodes(0.5 * delta, delta, 1.5)
        t, pts = nodes.t, nodes.points
        g_t, g_pts = _bernoulli_g(t, A, n), _bernoulli_g(pts, A, n)
        c = -0.125 * n * A
        self._h = h = _Table(nodes, c * g_pts, c * g_t)
        h.F -= h(1.0)  # from H(delta) = 0 to H(1) = 0
        self.a1 = (lam / (2.0 * delta * delta)) * delta ** (-0.5 * (n - 4)) \
            * math.exp(n * A * delta * delta / 8.0) - float(h(delta))
        if self.alpha(1.0) > gamma:
            raise ConstructionError(
                "glue", "the slope stays above gamma out to r = 1; "
                "delta1 would leave the unit ball")
        # geometric bisection; a step that leaves the bracket as it was has
        # reached float resolution, and every later step would repeat it
        lo_b, hi_b = delta, 1.0
        for _ in range(200):
            mid = math.sqrt(lo_b * hi_b)
            bracket = (mid, hi_b) if self.alpha(mid) > gamma else (lo_b, mid)
            if bracket == (lo_b, hi_b):
                break
            lo_b, hi_b = bracket
        self.delta1 = delta1 = 0.5 * (lo_b + hi_b)

        alpha_t = _slope(self.a1, h.F, t / g_t)
        alpha_pts = _slope(self.a1, h.at_points(), pts / g_pts)
        self._w = _Table(nodes, alpha_pts / pts, alpha_t / t)
        # annulus value at its inner edge; the bubble shift follows from it
        self.u_inner = gamma * math.log(delta1) - float(self._w(delta1))
        self.b0 = self.u_inner - math.log(lam + delta * delta)

    def alpha(self, r):
        # a float stays a float: the bisection for delta1 runs on scalars
        if not isinstance(r, float):
            r = np.asarray(r, dtype=float)
        return _slope(self.a1, self._h(r), _slope_factor(r, self.A, self.n))

    def quad(self, r, a):
        """The padded bracket 2 alpha - alpha^2 - A r^2 alpha at slope a."""
        return 2.0 * a - a * a - self.A * r * r * a

    def _alpha_prime(self, r, a):
        return (self.A * r * r * a - 0.25 * (self.n - 4) * self.quad(r, a)) / r

    def u(self, r):
        return self.u_inner + self._w(r)

    def derivatives(self, r):
        r = np.asarray(r, dtype=float)
        a = self.alpha(r)
        return _from_slope(r, self.u(r), a, self._alpha_prime(r, a))


@dataclass
class GluingProfile:
    """Annulus construction report: matching data plus measured bounds.

    The padded quantities evaluate the worst-case Schouten brackets in which
    the background curvature is replaced by the +-A r^2 envelope; positivity
    of ``padded_quad_min`` together with the bracket values is the cone
    certificate that does not depend on the background details.
    """

    n: int
    lam: float
    beta: float
    gamma: float
    A: float
    delta: float
    delta1: float
    a1: float
    b0: float
    delta1_ratio: float
    delta1_ratio_target: float
    boundary_match_inner: float
    boundary_match_outer: float
    cone_ok: bool
    min_sigma1: float
    min_sigma2: float
    padded_quad_min: float
    sigma1_bracket_min: float
    sigma2_bracket_min: float
    padding_dominates: bool
    energy_const: float
    volume_const: float
    core: _GluingCore = field(repr=False)

    def alpha(self, r):
        return self.core.alpha(r)


def glue_lemma6(bp: BubbleParams, gamma: float) -> GluingProfile:
    """Build and verify the gluing annulus between bubble and tube.

    The slope is the Bernoulli profile with the padding ``A = PADDING_A``.
    It starts at the bubble value ``2 delta^2/(lam + delta^2)``,
    decays per the closed-form profile, and hits ``gamma`` at ``delta1``
    (located by bisection).  Verified here: the slope band, monotonicity,
    C^1 matching at both edges, the padded cone brackets, true pointwise
    cone membership against the bubble's background model, and the measured
    annulus energy/volume against their scaling normalizers

        energy ~ delta^{4+n(1-gamma)} lam^{-3+2 gamma},
        volume ~ (delta^{(n+4-n gamma)/(2(2-gamma))} / lam)^{2n(2-gamma)/(n-4)}.
    """
    A = PADDING_A
    n, lam = bp.n, bp.lam
    core = _GluingCore(n, lam, bp.beta, gamma, A)
    delta, delta1 = core.delta, core.delta1

    r = np.geomspace(delta, delta1, 513)
    alpha = core.alpha(r)
    if not np.all(np.diff(alpha) < 0.0):
        raise ConstructionError("glue", "slope is not strictly decreasing")
    band_lo = gamma - 1e-9
    if alpha.min() < band_lo or alpha.max() >= 2.0:
        worst = r[int(np.argmin(alpha))] if alpha.min() < band_lo else r[int(np.argmax(alpha))]
        raise ConstructionError("glue", f"slope exits (gamma, 2) near r = {worst:.6g}")

    # C^1 matching defects (should be at rounding level by construction)
    match_inner = abs(float(core.alpha(delta)) - core.alpha_delta)
    match_outer = abs(float(core.alpha(delta1)) - gamma)

    # padded Schouten brackets from the closed-form slope
    ap = core._alpha_prime(r, alpha)
    quad = core.quad(r, alpha)
    ratio = (r * ap - A * r * r * alpha) / quad
    s1_bracket = (n - 2) + 2.0 * ratio
    s2_bracket = (n - 4) + 4.0 * ratio

    # true pointwise cone check against the bubble's background model
    model = bp.model()
    s1, s2, tables = _sigma_pair(r, core.derivatives(r), model)
    cone_ok = bool(s1.min() > 0.0 and s2.min() > 0.0)
    s_r0, s_t0 = tables.base
    pad_scale = 0.5 * A * float(alpha.min())
    padding_dominates = bool(
        max(np.abs(s_r0 / (r * r)).max(), np.abs(s_t0 / (r * r)).max()) <= pad_scale)

    rq, wq = _panel_nodes(log_edges(delta, delta1, 64))
    [[energy]], [volume] = _masses(rq, wq, core.derivatives(rq), [model], n, [0, rq.size])
    energy_norm = delta ** (4.0 + n * (1.0 - gamma)) * lam ** (-3.0 + 2.0 * gamma)
    vol_exp = 2.0 * n * (2.0 - gamma) / (n - 4.0)
    volume_norm = (delta ** ((n + 4.0 - n * gamma) / (2.0 * (2.0 - gamma))) / lam) ** vol_exp

    return GluingProfile(
        n=n, lam=lam, beta=bp.beta, gamma=gamma, A=A,
        delta=delta, delta1=delta1, a1=core.a1, b0=core.b0,
        delta1_ratio=delta1 ** (0.5 * (n - 4)) * lam / delta ** (0.5 * n),
        delta1_ratio_target=2.0 / gamma - 1.0,
        boundary_match_inner=match_inner,
        boundary_match_outer=match_outer,
        cone_ok=cone_ok,
        min_sigma1=float(s1.min()),
        min_sigma2=float(s2.min()),
        padded_quad_min=float(quad.min()),
        sigma1_bracket_min=float(s1_bracket.min()),
        sigma2_bracket_min=float(s2_bracket.min()),
        padding_dominates=padding_dominates,
        energy_const=energy / energy_norm,
        volume_const=volume / volume_norm,
        core=core,
    )


# ---------------------------------------------------------------------------
# assembled comparison metric

def _eps_margin(gamma: float) -> float:
    """The transition's eps margin in the assembly: 80% of the bound
    (2 - gamma)/5 below which the taper of ``_PatchProfile`` has
    ``2 - 5 eps > gamma``, and at most 0.15.  The cone on the transition is
    then certified by the assembly's region report, not by this margin."""
    return min(0.15, 0.8 * (2.0 - gamma) / 5.0)


class _PatchProfile:
    """Full radial profile on (0, infinity): bubble through outer cap.

    Regions, inner to outer, with cap = log(1 + r^2) the round cap factor.
    Three regions are C^2 blends of two profiles: the seams at delta and
    delta1, over a window of width ``0.1 * min(delta, delta1 - delta)`` (a
    window as wide as that minimum would reach past the annulus tables), and
    the ramp on [r8, r7].  The other joints meet as they are: the transition
    is C^1 at r6 and r5, where the slope's derivative switches on and off,
    so u'' (and sigma_2 with it) jumps there.

        bubble       u = log(lam + r^2) + b0
        seam_inner   blend(bubble, annulus) at delta
        annulus      u' = alpha/r with the Bernoulli slope
        seam_outer   blend(annulus, tube) at delta1
        tube         u = gamma log r
        ramp         blend(tube, cap) on [r8, r7]
        tube_cap     u = gamma log r + cap
        taper        slope decays from gamma, cap on
        bridge       slope smoothsteps to 0, cap on
        outer        u = cap + b1

    The regions ``tube`` to ``outer`` are the transition, normalized to the
    tube.  The taper slope ``alpha(r) = (2-5 eps) dt/(dt + r^{1/2-5 eps/4})``
    solves the eps-padded slope equation exactly, with ``dt`` chosen so the
    taper meets gamma at r6; the bridge smoothsteps it from ``alpha5``, its
    value at r5, to 0 at r4.  The cone minima that ``assemble_and_compare``
    reports for these regions certify the transition on the glued metric.

    ``eval_region`` is the one dispatcher: it evaluates (u, u', u'') on a
    region named by the caller, and ``pieces`` lays out the regions' extents.
    """

    def __init__(self, n, lam, beta, gamma, radii):
        self.lam, self.gamma = lam, gamma
        self.r8, self.r7, self.r6, self.r5, self.r4 = r8, r7, r6, r5, r4 = radii[:5]
        self.glue = _GluingCore(n, lam, beta, gamma, PADDING_A)
        self.delta, self.delta1 = self.glue.delta, self.glue.delta1
        if not self.delta1 < r8:
            raise ConstructionError(
                "assemble", f"gluing edge delta1 = {self.delta1:.4g} reaches the "
                f"transition radius r8 = {r8}")
        self.blend_w = 0.1 * min(self.delta, self.delta1 - self.delta)
        if not self.delta1 + 0.5 * self.blend_w < r8:
            raise ConstructionError(
                "assemble", f"the tube region is empty: its blend window ends at "
                f"{self.delta1 + 0.5 * self.blend_w:.4g}, past the transition "
                f"radius r8 = {r8}")
        self.eps = eps = _eps_margin(gamma)
        self.top = top = 2.0 - 5.0 * eps
        self.qhat = qhat = 0.5 - 1.25 * eps
        if not top > gamma:
            raise ConstructionError(
                "transition", f"need 2 - 5 eps > gamma, got {top:.4f} <= {gamma}")
        self.delta_t = gamma * r6 ** qhat / (top - gamma)
        self.alpha5 = float(self._taper_alpha(r5))
        self.w_r5 = gamma * math.log(r6) + float(self._taper_w(r5))
        self._w_bridge = _antiderivative(lambda t: self._bridge_alpha(t)[0] / t, r5, r5, r4)
        self.b0, self.b1 = self.glue.b0, self.w_r5 + float(self._w_bridge(r4))

    # taper: closed-form slope solving the eps-padded equation
    def _taper_alpha(self, r):
        z = np.asarray(r, dtype=float) ** self.qhat
        return self.top * self.delta_t / (self.delta_t + z)

    def _taper_alpha_prime(self, r):
        r = np.asarray(r, dtype=float)
        z = r ** self.qhat
        return -self.top * self.delta_t * self.qhat * z / (r * (self.delta_t + z) ** 2)

    def _taper_w(self, r):
        z = np.asarray(r, dtype=float) ** self.qhat
        z6 = self.r6 ** self.qhat
        return (self.top / self.qhat) * (
            np.log(z / (self.delta_t + z)) - math.log(z6 / (self.delta_t + z6)))

    def _bridge_alpha(self, r):
        """The bridge slope alpha5 (1 - S) and its derivative."""
        S, Sd, _ = _ramp(r, self.r5, self.r4 - self.r5)
        return self.alpha5 * (1.0 - S), -self.alpha5 * Sd

    def _seam(self, r, left: str, right: str, center: float):
        base = self.eval_region(r, left)
        step = [x - y for x, y in zip(self.eval_region(r, right), base)]
        return _blend(base, step, _ramp(r, center - 0.5 * self.blend_w, self.blend_w))

    def eval_region(self, r, region):
        r = np.asarray(r, dtype=float)
        if region == "bubble":
            return _bubble(self.lam, r, self.b0)
        if region == "seam_inner":
            return self._seam(r, "bubble", "annulus", self.delta)
        if region == "annulus":
            return self.glue.derivatives(r)
        if region == "seam_outer":
            return self._seam(r, "annulus", "tube", self.delta1)
        g = self.gamma
        if region == "tube":
            return g * np.log(r), g / r, -g / (r * r)
        cap = _cap(r)
        if region == "ramp":
            return _blend(self.eval_region(r, "tube"), cap, _ramp(r, self.r8, self.r7 - self.r8))
        if region == "tube_cap":
            return _plus(self.eval_region(r, "tube"), cap)
        if region == "taper":
            w = g * math.log(self.r6) + self._taper_w(r)
            return _plus(_from_slope(r, w, self._taper_alpha(r), self._taper_alpha_prime(r)),
                         cap)
        if region == "bridge":
            return _plus(_from_slope(r, self.w_r5 + self._w_bridge(r), *self._bridge_alpha(r)),
                         cap)
        if region == "outer":
            return cap[0] + self.b1, cap[1], cap[2]
        raise KeyError(region)

    def pieces(self):
        """Quadrature panel edges per region (outer region handled separately)."""
        w = 0.5 * self.blend_w
        return [
            ("bubble", _bubble_edges(self.lam, self.delta - w)),
            ("seam_inner", np.linspace(self.delta - w, self.delta + w, 5)),
            ("annulus", log_edges(self.delta + w, self.delta1 - w, 64)),
            ("seam_outer", np.linspace(self.delta1 - w, self.delta1 + w, 5)),
            ("tube", log_edges(self.delta1 + w, self.r8, 24)),
            ("ramp", np.linspace(self.r8, self.r7, 25)),
            ("tube_cap", np.linspace(self.r7, self.r6, 13)),
            ("taper", np.linspace(self.r6, self.r5, 13)),
            ("bridge", np.linspace(self.r5, self.r4, 33)),
        ]

    def region_nodes(self):
        """Per region, inner to outer: name, extent, quadrature nodes and
        weights, and cone nodes (33 per panel, then the outer edge)."""
        plan = [(name, float(edges[0]), float(edges[-1]), *_panel_nodes(edges),
                 _refine(edges, 33))
                for name, edges in self.pieces()]
        # outer region: substitute r = r4/s and integrate s over (0, 1]
        r4 = self.r4
        s, ws = _panel_nodes(log_edges(1e-9, 1.0, 65))
        plan.append(("outer", r4, math.inf, r4 / s, ws * r4 / (s * s),
                     np.geomspace(r4, 40.0, 1025)))
        return plan


@dataclass
class RegionReport:
    """Energy, volume and cone minima of one region of the assembled metric.

    ``quad_nodes`` and ``cone_nodes`` count the region's quadrature nodes
    and cone-check nodes: its slices of the node arrays that the assembly
    lays out for all regions at once.
    """

    name: str
    r_lo: float
    r_hi: float
    energy: float
    volume: float
    min_sigma1: float
    min_sigma2: float
    quad_nodes: int
    cone_nodes: int

    @property
    def in_cone(self) -> bool:
        return self.min_sigma1 > 0.0 and self.min_sigma2 > 0.0


@dataclass
class AssembledMetric:
    """Assembled patch metric and its round-sphere energy comparison.

    ``margin = Y2_sphere - F2_tilde`` is the quantity the construction is
    about; ``lambda2_slope`` is the measured curvature response
    ``(F2_tilde - F2_tilde_flat)/lam^2`` whose target is
    ``B^{(4-n)/n} C delta_r``.  The cone report is per region: at
    desk-scale radii the cap ramp and taper regions carry negative sigma_2
    zones, and ``gamma2_ok`` is then false.  Y2 is an infimum over metrics
    in Gamma_2^+, so the margin of such an assembly bounds nothing.

    The regions ``tube`` to ``outer`` are the transition, and their cone
    minima are its certificate on the glued metric: the ``min_sigma2`` of
    ``tube`` and ``ramp`` is the margin under the cap cutoff window, that of
    ``taper`` the margin inside the slope taper.  ``eps_margin`` is the
    transition's margin, derived from gamma.  ``F2_tilde`` is NaN where
    ``scale_invariant_energy`` is (F2 or the volume not finite, or the
    volume's power out of range), and so are the margin and the slope.
    """

    bp: BubbleParams
    gamma: float
    eps_margin: float
    beta_in_proof_range: bool
    delta: float
    delta1: float
    a1: float
    b0: float
    b1: float
    regions: tuple
    gamma2_ok: bool
    F2: float
    volume: float
    F2_tilde: float
    Y2_sphere: float
    margin: float
    flat: "AssembledMetric | None"
    lambda2_slope: float
    lambda2_target: float
    profile: _PatchProfile = field(repr=False)


def check_radii(radii) -> tuple:
    """The layout (r8, r7, r6, r5, r4, r0) as floats, or ValueError.

    A caller that takes r0 from the layout checks it first, so that a short
    list is reported as a bad layout and not as a bad patch radius.
    """
    radii = tuple(float(v) for v in radii)
    if len(radii) != 6 or not all(a < b for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be six increasing values (r8, r7, r6, r5, r4, r0), "
                         f"got {radii}")
    return radii


def assemble_and_compare(bp: BubbleParams, gamma: float,
                         radii=STANDARD_RADII) -> AssembledMetric:
    """Stitch bubble, gluing annulus, transition, and outer cap; compare.

    The construction's fixed values are the annulus padding ``PADDING_A``,
    the transition margin ``eps_margin = min(0.15, 0.8 (2 - gamma)/5)`` and
    the deficit model's cutoff ``(CUT_RADIUS, CUT_WIDTH)``.  Returns the
    assembled profile with per-region energies and cone minima (those of
    the regions ``tube`` to ``outer`` are the transition's certificate), the
    scale-invariant energy ``scale_invariant_energy(F2, volume, n)``, and
    its margin below the round sphere's value.

    When the bubble carries a curvature deficit, a flat twin (same
    construction, deficit 0) is compared as well and the measured lam^2
    energy response is reported against ``B^{(4-n)/n} C delta_r``.

    The comparison is one pass over all regions.  Their quadrature nodes lie
    end to end in one array and their cone nodes in another, with region
    offsets; each region's profile is evaluated once, at its quadrature and
    cone nodes together.  The profile does not depend on the deficit, so the
    flat twin shares it, with the node arrays, the node derivatives, the
    measure, e^{(4-n)u}, the region volumes, and e^{2u} and e^{4u} at the
    cone nodes.  Only the background model differs: each of the two models
    costs one sigma_2 evaluation on either node set.
    """
    radii = check_radii(radii)
    n = bp.n
    beta_ok = 0.25 < bp.beta < (n - 4.0) / (2.0 * n)
    sc = sphere_constants(n)
    # before any quadrature, which overflows long before the target fails
    lam2_target = _lam2_target(sc, bp.delta_r) if bp.delta_r != 0.0 else math.nan

    prof = _PatchProfile(n, bp.lam, bp.beta, gamma, radii)
    names, r_lo, r_hi, rq, wq, rc = zip(*prof.region_nodes())
    # every region's nodes end to end: region k has the quadrature nodes
    # rq[q_off[k]:q_off[k+1]] and the cone nodes rc[c_off[k]:c_off[k+1]]
    q_off = np.cumsum([0] + [r.size for r in rq]).tolist()
    c_off = np.cumsum([0] + [r.size for r in rc]).tolist()
    rq, wq, rc = np.concatenate(rq), np.concatenate(wq), np.concatenate(rc)
    # (u, u', u'') at both node sets, from one evaluation per region
    dq, dc = np.empty((3, rq.size)), np.empty((3, rc.size))
    for name, qa, qb, ca, cb in zip(names, q_off, q_off[1:], c_off, c_off[1:]):
        d = np.asarray(prof.eval_region(np.concatenate([rq[qa:qb], rc[ca:cb]]), name))
        dq[:, qa:qb], dc[:, ca:cb] = d[:, :qb - qa], d[:, qb - qa:]

    # the flat twin first, then the deficit model; the profile and every
    # factor that does not depend on the background are shared
    twins = [bp] if bp.delta_r == 0.0 else [BubbleParams(n, bp.lam, bp.r0, bp.beta, 0.0), bp]
    models = [params.model(CUT_RADIUS, CUT_WIDTH) for params in twins]
    energies, volumes = _masses(rq, wq, dq, models, n, q_off)
    cones = _cone_values(rc, dc, models)
    vol = _fsum(volumes)

    am = None
    for params, region_energies, (m1, m2) in zip(twins, energies, cones):
        regions = tuple(
            RegionReport(name, lo, hi, e, v, float(m1[ca:cb].min()), float(m2[ca:cb].min()),
                         qb - qa, cb - ca)
            for name, lo, hi, e, v, qa, qb, ca, cb in zip(
                names, r_lo, r_hi, region_energies, volumes,
                q_off, q_off[1:], c_off, c_off[1:]))
        F2 = _fsum(region_energies)
        F2t = scale_invariant_energy(F2, vol, n)
        slope, target = math.nan, math.nan
        if am is not None:
            slope = (F2t - am.F2_tilde) / params.lam ** 2
            target = lam2_target
        am = AssembledMetric(
            bp=params, gamma=gamma, eps_margin=prof.eps,
            beta_in_proof_range=beta_ok,
            delta=prof.delta, delta1=prof.delta1,
            a1=prof.glue.a1, b0=prof.b0, b1=prof.b1,
            regions=regions,
            gamma2_ok=bool(all(rr.in_cone for rr in regions)),
            F2=F2, volume=vol, F2_tilde=F2t,
            Y2_sphere=sc.Y2_sphere,
            margin=sc.Y2_sphere - F2t,
            flat=am,
            lambda2_slope=slope,
            lambda2_target=target,
            profile=prof,
        )
    return am


@dataclass
class MarginSweep:
    """Energy margins over a lam-sweep plus the fitted curvature response."""

    lams: tuple
    margins: tuple
    flat_margins: tuple
    F2_tilde: tuple
    F2_tilde_flat: tuple
    K2_fit: float
    K2_target: float
    K2_rel_dev: float
    reports: tuple


def margin_sweep(n: int = 9, lams=(1e-3, 3e-4, 1e-4), gamma: float = 1.05,
                 beta: float = 0.26, radii=STANDARD_RADII,
                 delta_r: float = -1.0) -> MarginSweep:
    """Assemble at several bubble scales and fit the lam^2 energy response.

    Each scale is one ``assemble_and_compare``, with its fixed values.

    The fit basis carries the leading remainder exponent alongside lam^2, so
    the extracted coefficient is not polluted by the next order; that
    exponent is (n-4)/2.  The target is B^{(4-n)/n} C delta_r.  The scales
    must be distinct and at least two, or the fit is underdetermined.
    """
    lams, radii = tuple(float(v) for v in lams), check_radii(radii)
    if delta_r >= 0.0:
        raise ValueError("the sweep needs a strict deficit delta_r < 0")
    fit_exponents = (2.0, (n - 4) / 2)
    if len(set(lams)) != len(lams) or len(lams) < len(fit_exponents):
        raise ValueError(f"the fit needs distinct bubble scales, at least "
                         f"{len(fit_exponents)}, got {lams}")
    reports = []
    for lam in lams:
        bp = BubbleParams(n, lam, radii[-1], beta, delta_r)
        reports.append(assemble_and_compare(bp, gamma, radii))
    lam_arr = np.asarray(lams, dtype=float)
    diff = np.array([rep.F2_tilde - rep.flat.F2_tilde for rep in reports])
    design = np.column_stack([lam_arr ** e for e in fit_exponents])
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    k2 = float(coef[0])
    target = _lam2_target(sphere_constants(n), delta_r)
    return MarginSweep(
        lams=lams,
        margins=tuple(rep.margin for rep in reports),
        flat_margins=tuple(rep.flat.margin for rep in reports),
        F2_tilde=tuple(rep.F2_tilde for rep in reports),
        F2_tilde_flat=tuple(rep.flat.F2_tilde for rep in reports),
        K2_fit=k2,
        K2_target=target,
        K2_rel_dev=abs(k2 - target) / abs(target),
        reports=tuple(reports),
    )
