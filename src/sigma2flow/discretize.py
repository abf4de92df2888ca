"""Uniform radial grids, high-order derivative stencils, and quadrature.

A rotationally symmetric field on the round sphere or on a flat ball reduces
to a function of one radial coordinate; the volume element carries the
dimensional factor (``sin^{n-1}`` resp. ``r^{n-1}`` times the measure of the
unit ``S^{n-1}``).  Grids are uniform and node-centered with the endpoints
included.

Derivatives use 4th-order centered 5-point stencils.  The left end of every
grid is an axis (a pole, or the ball's origin), and so is a sphere's right
end: smooth radial fields extend evenly there, so the field is padded with
mirrored ghost nodes.  At a ball's rim one-sided closures of the same order
take over on the two nodes nearest it.  Both derivatives of a grid are kept
in this banded form (``Stencils``), built once per grid, and one
strided-window product applies them to a field.

``integrate`` is the trapezoid rule against the radial volume density with an
exactly rounded (fsum) accumulation, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "RadialGrid",
    "sphere_latitude",
    "ball_radius",
    "Stencils",
    "stencil_tables",
    "integrate",
    "gauss_panels",
    "log_edges",
    "sphere_measure",
]

MIN_POINTS = 16


def sphere_measure(m: int) -> float:
    """Total measure of the unit sphere S^m; from m = 343 on, Gamma((m + 1)/2)
    overflows a float, and that raises ValueError."""
    if m < 0:
        raise ValueError("need m >= 0")
    try:
        return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)
    except OverflowError:
        raise ValueError(f"|S^{m}| needs Gamma({(m + 1) / 2.0}), which overflows a "
                         "float; m may be at most 342") from None


@dataclass(frozen=True)
class RadialGrid:
    """Uniform 1-d grid plus the radial volume density it integrates against.

    kind
        ``"sphere_latitude"`` for [0, pi] on the round n-sphere, or
        ``"ball_radius"`` for [0, r0] on a flat n-ball.
    """

    kind: str
    n: int
    x: np.ndarray
    density: np.ndarray
    right_even: bool  # the right end is an axis, not a rim; the left one always is

    @property
    def num_points(self) -> int:
        return self.x.size

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights times the volume density (read-only)."""
        w = self._ops.get("weights")
        if w is None:
            w = np.full(self.x.size, self.h)
            w[0] *= 0.5
            w[-1] *= 0.5
            w = self._ops["weights"] = w * self.density
            w.flags.writeable = False
        return w

    @property
    def stencils(self) -> "Stencils":
        """The first and second derivative stencils (band rows u', u'')."""
        st = self._ops.get("stencils")
        if st is None:
            first, second = stencil_tables(self, 1), stencil_tables(self, 2)
            st = first._replace(
                band=np.concatenate([first.band, second.band]),
                closure_coef=np.concatenate([first.closure_coef, second.closure_coef]))
            self._ops["stencils"] = st
        return st

    # per-grid caches: the stencils, the weights, and per background the grid
    # check, the one Schouten routine's inputs (for the flow kernel and
    # ``schouten_fields``) and an equilibrium solve's coarse grid
    _ops: dict = field(default_factory=dict, repr=False, compare=False)


def _validate(n: int, num_points: int) -> None:
    if n < 2:
        raise ValueError(f"need dimension n >= 2, got {n}")
    if num_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} grid points, got {num_points}")


def sphere_latitude(n: int, num_points: int) -> RadialGrid:
    """Latitude grid on [0, pi] for the round S^n; both poles are axes."""
    _validate(n, num_points)
    x = np.linspace(0.0, math.pi, num_points)
    sine = np.sin(x)
    # sin(pi) is 1.2e-16, not 0: its power would underflow from n = 30 on
    sine[-1] = 0.0
    density = sine ** (n - 1) * sphere_measure(n - 1)
    return RadialGrid("sphere_latitude", n, x, density, True)


def ball_radius(n: int, num_points: int, r0: float) -> RadialGrid:
    """Radius grid on [0, r0] for a flat n-ball; the rim is a genuine boundary."""
    _validate(n, num_points)
    if r0 <= 0.0:
        raise ValueError(f"need r0 > 0, got {r0}")
    x = np.linspace(0.0, float(r0), num_points)
    density = x ** (n - 1) * sphere_measure(n - 1)
    return RadialGrid("ball_radius", n, x, density, False)


# ---------------------------------------------------------------------------
# stencils

# centered 4th-order first/second derivative, offsets -2..2
_C1_CENTER = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2_CENTER = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

# one-sided 4th-order closures at a boundary node (row 0) and one node in
# (row 1), with coefficients on nodes 0..5 counted from the boundary
_C1_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0, 0.0],
                     [-3.0, -10.0, 18.0, -6.0, 1.0, 0.0]]) / 12.0
_C2_EDGE = np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
                     [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]]) / 12.0


class Stencils(NamedTuple):
    """Derivative stencils of one grid in banded form, one row per derivative.

    Every node gets the centered row of ``band`` applied to the five samples
    of ``u[pad]`` around it; ``pad`` is u with two ghost nodes at each end,
    mirrored at an axis.  At a genuine boundary (only ever the right end) the
    two nodes nearest it take one-sided closures on six nodes instead.
    """

    pad: np.ndarray            # (N + 4,) node index of each padded sample
    band: np.ndarray           # (k, 5) centered rows
    closure_rows: np.ndarray   # nodes next to a genuine boundary (0 or 2)
    closure_nodes: np.ndarray  # (len(closure_rows), 6) the nodes each closure reads
    closure_coef: np.ndarray   # (k, len(closure_rows), 6) the closure rows

    def apply(self, u: np.ndarray) -> np.ndarray:
        """(k, N): every derivative of the float array u, one row each."""
        if u.shape != (self.pad.size - 4,):
            raise ValueError(
                f"field shape {u.shape} does not match grid ({self.pad.size - 4},)")
        # the five shifted copies of u the band reads, as strided views of
        # one padded gather
        padded = u[self.pad]
        step = padded.itemsize
        windows = np.ndarray((5, u.size), padded.dtype, padded, 0, (step, step))
        d = self.band @ windows
        if self.closure_rows.size:
            d[:, self.closure_rows] = np.einsum(
                "krj,rj->kr", self.closure_coef, u[self.closure_nodes])
        return d


def stencil_tables(grid: RadialGrid, order: int) -> Stencils:
    """The banded stencil of d^order/dx^order on the grid (one band row)."""
    if order not in (1, 2):
        raise ValueError("only first and second derivatives are provided")
    N = grid.num_points
    last = N - 1
    pad = np.clip(np.arange(-2, N + 2), 0, last)
    pad[:2] = (2, 1)
    scale = grid.h if order == 1 else grid.h * grid.h
    center, edge = (_C1_CENTER, _C1_EDGE) if order == 1 else (_C2_CENTER, _C2_EDGE)
    rows, nodes, coef = [], [], []
    if grid.right_even:
        pad[-2:] = (last - 1, last - 2)
    else:
        # counted from the right end, so an odd derivative changes sign
        rows, nodes = [last, last - 1], [last - np.arange(6)] * 2
        coef = edge if order == 2 else -edge
    return Stencils(
        pad=pad,
        band=(center / scale)[None],
        closure_rows=np.array(rows, dtype=np.intp),
        closure_nodes=np.array(nodes, dtype=np.intp).reshape(-1, 6),
        closure_coef=(np.array(coef).reshape(-1, 6) / scale)[None],
    )


# ---------------------------------------------------------------------------
# quadrature

def integrate(grid: RadialGrid, f) -> float:
    """Trapezoid rule against the grid's volume density.

    Accumulation is exactly rounded (math.fsum), so the result does not
    depend on summation order and reruns are byte-identical.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.num_points,):
        raise ValueError(
            f"field shape {f.shape} does not match grid ({grid.num_points},)"
        )
    return math.fsum((grid.weights * f).tolist())


@lru_cache(maxsize=1)
def _gauss24():
    """The 24-point Gauss-Legendre rule on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(24)


def gauss_panels(f, edges) -> float:
    """Composite Gauss-Legendre quadrature of a vectorized callable.

    ``edges`` is an increasing sequence of panel boundaries; each panel gets
    the 24-point rule.  Panel results are combined with fsum.  Intended
    for the smooth model-metric integrands where adaptive quadrature would be
    overkill but single-panel rules underresolve the decades of scale.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("panel edges must be strictly increasing")
    z, w = _gauss24()
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        parts.append(half * math.fsum((w * f(mid + half * z)).tolist()))
    return math.fsum(parts)


def log_edges(a: float, b: float, panels: int) -> np.ndarray:
    """Geometrically spaced panel edges from a to b (both positive)."""
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    return np.geomspace(a, b, panels + 1)
