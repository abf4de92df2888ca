"""Normalized descent flow for the sigma_2 energy on radial backgrounds.

The evolving metric is ``g(t) = e^{-2u(t)} g0``.  The conformal factor moves
by

    2 du/dt = h(a) - h(b) - s_eps,
    a = sigma_2(W)^{1/2},          b = r_eps^{1/2} e^{(eps-2)u},

where ``W`` is the transformed Schouten tensor of u, the normalizer
``r_eps = F2 / V_eps`` pins the equilibrium scale, and ``s_eps`` is the
V_eps-weighted mean of h(a) - h(b), chosen so the regularized volume V_eps
is conserved exactly by the semi-discrete system.  Stationary points solve
``sigma_2(W) = r_eps e^{(2 eps - 4) u}``.

The gauge function

    h(s) = 2 log s            (s <= 1)
           s - 1 + log s      (s > 1)

is C^1, strictly increasing with h' >= 1, and concave; the logarithmic inner
branch steepens the response where sigma_2 collapses, the linear outer branch
keeps the time-step restriction benign where sigma_2 is large.

Energy dissipation: with r_eps = F2/V_eps the volume projection drops out of
the energy slope exactly, leaving

    dF2/dt = -(n-4)/2 int (h(a) - h(b)) (sigma_2(g) - r_eps e^{2 eps u}) dvol(g)

whose integrand is a product of two same-signed factors, so F2 is
non-increasing for n > 4.  The monitor records both this formula and the
finite-difference slope of F2 so the two can be cross-checked.

Time stepping is damped second-order Runge-Kutta-Chebyshev (RKC; Sommeijer,
Shampine & Verwer 1998).  Each step takes as many stages as its damped
Chebyshev stability interval needs to cover ``dt * rho``, with the spectral
bound ``rho = 1.25 max_i lambda_i / dx^2`` built from the per-node
linearization scale ``lambda_i = h'(a) (n-1) sigma_1(W) / (2 a)``.  The step
length comes from the embedded local-error estimate: each step is
``dt_safety`` times the step at which the sup-norm estimate would equal the
config's ``step_tol``, so halving ``dt_safety`` halves the steps.  The first
step is the explicit parabolic step ``dt_safety * dx^2 / max_i lambda_i``.
V_eps is never projected back onto its start value; its drift measures the
time-stepping error.  Every run steps at the default ``STEP_TOL``, which keeps
a trajectory accurate, unless its config says otherwise.
One routine, ``_Stepper.take``, takes every accepted step and retakes a
rejected one shorter: ``flow_run`` loops over it and ``step`` calls it
once.  A step that cannot be accepted ends its retries with an error
(``flow_run`` status ``non_finite`` or ``stalled``) instead of running on.

The eigen solve and every continuation rung are one equilibrium solve
(``_equilibrium_run``): one that stops on convergence converges on min(N, 32)
points of the same background first (nested iteration, the full multigrid
start), by the flow down to sup |v| = 1e-2 (at a loose fixed step tolerance,
with no records) and Newton with full steps from there, and finishes on the
requested grid from that equilibrium, shifted to the V_eps of u0.  Its r_eps
and Y energies agree with a single-grid solve to about 1e-14 relative, and
its final u with the single-grid one to about 1e-8 up to a constant.
``flow_run`` and ``step`` never do this.

The monitors only a record reads (min sigma_2(g), the gradient bound, the
dF2/dt formula and the equilibrium residual) are computed only at the
states that become records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .discretize import RadialGrid
from .geometry import (ConeViolation, ConformalField, functional_V, radial_schouten,
                       scale_invariant_energy, schouten_inputs)

__all__ = [
    "FlowConfig",
    "STEP_TOL",
    "BLOWUP_FLOOR",
    "MAX_STEPS",
    "MonitorRecord",
    "MONITOR_COLUMNS",
    "FlowResult",
    "FlowState",
    "flow_state",
    "velocity",
    "step",
    "flow_run",
    "eigen_solve",
    "EigenResult",
    "continuation",
    "ContinuationRung",
    "CoarseStage",
    "initial_field",
    "INITIAL_FIELDS",
    "write_monitor_csv",
]


# ---------------------------------------------------------------------------
# configuration / results

#: default sup-norm tolerance on the local error of one RKC step, for a
#: time-accurate trajectory; the tightest V_eps bound in the tests (1e-10 by
#: t = 0.2 at 96 points) sees 5.4e-11 with it
STEP_TOL = 5e-12
#: a run whose min u falls below this (finite) floor ends as blow_up_suspected
BLOWUP_FLOOR = -10.0
#: most accepted steps of one run; a run that takes them ends as max_steps
MAX_STEPS = 50_000_000


@dataclass(frozen=True)
class FlowConfig:
    """Settings of one flow run, checked when they are made.

    ``dt_safety`` (in (0, 1)) scales every step: the RKC controller takes
    ``dt_safety`` times the step whose local-error estimate meets ``step_tol``
    (sup norm of u), and the first step is ``dt_safety * dx^2 / max lambda``.
    ``step_tol`` defaults to ``STEP_TOL``, which keeps a trajectory accurate.
    Steps land exactly on the record times ``i * record_dt`` and on
    ``t_max``, so a run to ``t_max`` takes at least ``t_max / record_dt``
    steps; that count may not exceed ``MAX_STEPS``.  A run ends as
    ``blow_up_suspected`` below the fixed floor ``BLOWUP_FLOOR`` of min u.
    An equilibrium solve's coarse flow phase takes neither ``step_tol`` nor
    ``record_dt`` from its config (``_equilibrium_run``).
    """

    eps: float
    t_max: float = 10.0
    dt_safety: float = 0.8
    tol_converge: float = 1e-8
    record_dt: float = 0.01
    timeout: float | None = None
    step_tol: float = STEP_TOL

    def __post_init__(self):
        for name in ("eps", "t_max", "dt_safety", "tol_converge", "record_dt",
                     "timeout", "step_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("t_max", "tol_converge", "timeout"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.dt_safety <= 0.0:
            raise ValueError(f"dt_safety must be positive, got {self.dt_safety}")
        if self.dt_safety >= 1.0:
            # each step aims at a scaled error of dt_safety^3 and is accepted
            # only at 1 or below, so from 1 on (nearly) every step is rejected
            raise ValueError(f"dt_safety must be below 1, got {self.dt_safety}")
        if self.step_tol <= 0.0:
            raise ValueError(f"step_tol must be positive, got {self.step_tol}")
        if self.record_dt <= 0.0:
            raise ValueError(f"record_dt must be positive, got {self.record_dt}")
        if self.t_max / self.record_dt > MAX_STEPS:
            raise ValueError(
                f"t_max / record_dt = {self.t_max / self.record_dt:.6g} record times "
                f"exceed MAX_STEPS = {MAX_STEPS}")


class MonitorRecord(NamedTuple):
    t: float
    F2: float
    V_eps: float
    r_eps: float
    s_eps: float
    min_sigma2: float
    sup_grad: float
    dF2dt_measured: float
    dF2dt_formula: float


MONITOR_COLUMNS = MonitorRecord._fields


@dataclass
class FlowResult:
    """One ``flow_run``.  ``equilibrium_residual`` is the record slot sup
    |sigma_2(W)^{1/2} - r_eps^{1/2} e^{(eps-2)u}| at the final state;
    ``rejected_steps`` counts the step attempts whose error estimate
    exceeded ``step_tol``.  An equilibrium solve's ``evaluations`` include
    its coarse stage's."""

    status: str
    t: float
    steps: int
    u: np.ndarray
    grid: RadialGrid
    config: FlowConfig
    records: list[MonitorRecord]
    F2: float
    V_eps: float
    r_eps: float
    s_eps: float
    equilibrium_residual: float
    max_step_F2_increase: float
    max_V_drift: float
    evaluations: int = 0
    rejected_steps: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Scalar slots of one kernel evaluation, grouped by the level that fills
# them.  A _STAGE evaluation (an RKC inner stage) fills what the velocity
# needs; _STEP adds what the step loop reads (the stage count, convergence
# and blow-up checks); _RECORD adds what a monitor record reads.  The slot
# list of a lower level is shorter, so reading a slot it lacks raises.
_STAGE = 0
_STEP = 1
_RECORD = 2

_S_F2 = 0
_S_VEPS = 1
_S_REPS = 2
_S_SEPS = 3
_S_LAMMAX = 4
_S_SUPV = 5
_S_MINU = 6
_S_MIN_S2G = 7
_S_SUPGRAD = 8
_S_DF2 = 9
_S_RESID = 10
_NS = 11


def _record(t: float, s, measured: float) -> MonitorRecord:
    """The monitor record at time t from the record slots s."""
    return MonitorRecord(t, s[_S_F2], s[_S_VEPS], s[_S_REPS], s[_S_SEPS],
                         s[_S_MIN_S2G], s[_S_SUPGRAD], measured, s[_S_DF2])


# ---------------------------------------------------------------------------
# initial fields

def _init_constant(x, amplitude):
    return np.full(x.size, float(amplitude))


def _init_cosine(x, amplitude):
    span = x[-1] - x[0]
    return amplitude * np.cos(math.pi * (x - x[0]) / span)


def _init_bump(x, amplitude):
    span = x[-1] - x[0]
    c = x[0] + 0.5 * span
    w = span / 8.0
    return amplitude * np.exp(-(((x - c) / w) ** 2))


#: each start's maker and its default amplitude; a bump of 0.1 leaves
#: Gamma_2^+ of S^5 on 48 points and more, one of 0.05 does not
INITIAL_FIELDS = {
    "constant": (_init_constant, 0.1),
    "cosine": (_init_cosine, 0.1),
    "bump": (_init_bump, 0.05),
}


def initial_field(name: str, grid: RadialGrid, amplitude: float | None = None) -> np.ndarray:
    """The start ``name`` on the grid; without an ``amplitude``, the start's
    default from ``INITIAL_FIELDS``."""
    try:
        maker, default = INITIAL_FIELDS[name]
    except KeyError:
        raise ValueError(
            f"unknown initial field {name!r}; choose from {sorted(INITIAL_FIELDS)}"
        ) from None
    return maker(grid.x, default if amplitude is None else amplitude)


# ---------------------------------------------------------------------------
# time stepping: damped second-order Runge-Kutta-Chebyshev (RKC)

#: damping of the RKC stability polynomial (Sommeijer, Shampine & Verwer 1998)
_RKC_DAMPING = 2.0 / 13.0
#: the damped RKC2 polynomial with s stages is stable on [-0.653 (s^2 - 1), 0]
_RKC_BETA = 0.653
#: spectral-radius bound of the linearized flow in units of lambda_max / h^2;
#: finite-difference Jacobians on round S^5 and S^9 (64 to 256 points, several
#: starts) have spectral radius up to 1.02 lambda_max / h^2, and 1.25 keeps
#: the usual 20% margin
_RHO_PER_LAM = 1.25
#: rows of an RKC step's buffer: y_0, F_0 and three (y_k, F_k) pairs
_RKC_ROWS = 8
#: largest x whose e^x is a finite float
_EXP_MAX = math.log(np.finfo(float).max)
#: largest factor by which the controller lets one step grow or shrink
_GROWTH_MAX = 10.0
_GROWTH_MIN = 0.1


def _rkc_row(k: int) -> int:
    """Row of stage state y_k in an RKC step's buffer; F_k is the next row."""
    return 0 if k == 0 else 2 + 2 * (k % 3)


@lru_cache(maxsize=None)
def _rkc_tableau(s: int):
    """Damped RKC2 with s stages, as weights on the rows of a step's buffer.

    A step starts from y_0 with velocity F_0; stage j gives y_j and the
    velocity F_j at it.  Stage j needs only y_0, F_0, y_{j-2}, y_{j-1} and
    F_{j-1}, so the buffer holds y_0, F_0 and three rotating (y_k, F_k) pairs
    (``_rkc_row``).  Row j (1 <= j <= s) of ``fixed + dt * per_dt`` weights
    y_j on the buffer; row s + 1 weights the embedded error estimate
    ``0.8 (y_0 - y_s) + 0.4 dt (F_0 + F_s)``.
    """
    w0 = 1.0 + _RKC_DAMPING / (s * s)
    tj = np.zeros(s + 1)
    d1 = np.zeros(s + 1)
    d2 = np.zeros(s + 1)
    tj[0], tj[1], d1[1] = 1.0, w0, 1.0
    for j in range(2, s + 1):
        tj[j] = 2.0 * w0 * tj[j - 1] - tj[j - 2]
        d1[j] = 2.0 * tj[j - 1] + 2.0 * w0 * d1[j - 1] - d1[j - 2]
        d2[j] = 4.0 * d1[j - 1] + 2.0 * w0 * d2[j - 1] - d2[j - 2]
    w1 = d1[s] / d2[s]
    b = np.empty(s + 1)
    b[2:] = d2[2:] / (d1[2:] * d1[2:])
    b[0] = b[1] = b[2]
    fixed = np.zeros((s + 2, _RKC_ROWS))
    per_dt = np.zeros((s + 2, _RKC_ROWS))
    fixed[1, 0] = 1.0
    per_dt[1, 1] = b[1] * w1
    for j in range(2, s + 1):
        mu = 2.0 * b[j] * w0 / b[j - 1]
        nu = -b[j] / b[j - 2]
        mut = 2.0 * b[j] * w1 / b[j - 1]
        fixed[j, 0] += 1.0 - mu - nu
        fixed[j, _rkc_row(j - 1)] += mu
        fixed[j, _rkc_row(j - 2)] += nu
        per_dt[j, _rkc_row(j - 1) + 1] += mut
        per_dt[j, 1] += -(1.0 - b[j - 1] * tj[j - 1]) * mut
    fixed[s + 1, 0], fixed[s + 1, _rkc_row(s)] = 0.8, -0.8
    per_dt[s + 1, 1] = per_dt[s + 1, _rkc_row(s) + 1] = 0.4
    return fixed, per_dt


def _stage_count(dt: float, lam_max: float, h2: float) -> int:
    """Fewest RKC2 stages whose stability interval covers dt * rho."""
    z = dt * _RHO_PER_LAM * lam_max / h2
    return max(2, math.ceil(math.sqrt(1.0 + z / _RKC_BETA)))


class _Stepper:
    """The velocity kernel, the RKC step and its step-size controller.

    ``velocity`` evaluates the flow at one state; ``advance`` takes one step
    of a given length from a state whose velocity is known, evaluating the
    kernel once per stage, and checks every evaluation against the cone.
    The velocity and slots at the new state come back with it, so the next
    step starts from them.  The local error is the embedded estimate of
    Sommeijer, Shampine & Verwer, ``0.8 (u0 - u1) + 0.4 dt (v0 + v1)``, in
    the sup norm relative to ``step_tol``.
    """

    def __init__(self, background, grid: RadialGrid, eps: float, dt_safety: float,
                 step_tol: float = STEP_TOL):
        n = background.n
        eps = float(eps)
        # band rows u'', u', u', and the background's tables, for radial_schouten
        self.stencils, self.schouten = schouten_inputs(grid, background)
        self.weights = grid.weights
        self.n = n
        self.h2 = grid.h * grid.h
        self.dt_safety = dt_safety
        self.step_tol = step_tol
        self.evaluations = 0
        self.rejected = 0
        # exponents of e^{(4-n)u} (F2), e^{(2 eps-n)u} (V_eps), e^{(2 eps-4)u} (b^2)
        self.exponents = np.array([[4.0 - n], [2.0 * eps - n], [2.0 * eps - 4.0]])
        # largest sup |u| at which e^{cu} is finite for c = 4 (the record
        # slot sigma_2(g)) and for each kernel exponent c
        self.reach = _EXP_MAX / max(4.0, float(np.max(np.abs(self.exponents))))

    def velocity(self, u, level, out=None):
        """(v, slots) at u, or None outside the cone.

        ``u`` is a float array; ``level`` says which slots to fill, and the
        velocity goes to ``out`` when it is given.
        """
        self.evaluations += 1
        n = self.n
        # rows u'', then the tangential Hessian in place of u', then u'
        d = self.stencils.apply(u)
        # rows sigma_1, sigma_2, then b^2 once r_eps is known
        q = np.empty((3, u.size))
        radial_schouten(self.schouten, d, q[:2])
        s1, s2 = q[0], q[1]
        if np.minimum.reduce(q[:2], axis=None) <= 0.0:
            return None
        e = self.exponents * u
        np.exp(e, out=e)
        f2i = e[0] * s2
        f2 = float(np.dot(f2i, self.weights))
        wv = e[1] * self.weights
        veps = float(np.add.reduce(wv))
        reps = f2 / veps
        np.multiply(e[2], reps, out=q[2])
        ab = np.sqrt(q[1:])
        # h(s) + 1 = log min(s^2, s) + max(s, 1), for s = a and s = b
        hab = np.minimum(q[1:], ab)
        np.log(hab, out=hab)
        hab += np.maximum(ab, 1.0)
        hd = hab[0] - hab[1]
        seps = float(np.dot(wv, hd)) / veps
        v = np.subtract(hd, seps, out=out)
        v *= 0.5
        slots = [f2, veps, reps, seps]
        if level >= _STEP:
            # lambda = h'(a) (n-1) sigma_1 / (2a), with h'(a) = 1/a + max(1/a, 1)
            ia = 1.0 / ab[0]
            lam = np.maximum(ia, 1.0)
            lam += ia
            lam *= ia
            lam *= s1
            slots += (float(np.maximum.reduce(lam)) * (0.5 * (n - 1.0)),
                      float(np.maximum.reduce(np.abs(v))),
                      float(np.minimum.reduce(u)))
        if level == _RECORD:
            grad = np.maximum.reduce(np.abs(d[:2]))
            grad += d[2] * d[2]
            slots += (float(np.minimum.reduce(np.exp(u * 4.0) * s2)),
                      float(np.maximum.reduce(grad)),
                      -0.5 * (n - 4.0) * float(np.dot((f2i - e[1] * reps) * self.weights, hd)),
                      float(np.maximum.reduce(np.abs(ab[0] - ab[1]))))
        return v, slots

    def first_dt(self, slots) -> float:
        """The explicit parabolic step, which starts the controller."""
        return self.dt_safety * self.h2 / slots[_S_LAMMAX]

    def advance(self, u, v0, slots0, dt, level):
        """One RKC step: (u1, v1, slots1, err), or None on cone exit.

        The last stage is evaluated at ``level``, the inner ones at _STAGE.
        """
        stages = _stage_count(dt, slots0[_S_LAMMAX], self.h2)
        fixed, per_dt = _rkc_tableau(stages)
        weights = per_dt * dt
        weights += fixed
        rows = np.zeros((_RKC_ROWS, u.size))
        rows[0] = u
        rows[1] = v0
        for j in range(1, stages + 1):
            y = weights[j] @ rows
            row = _rkc_row(j)
            rows[row] = y
            ev = self.velocity(y, level if j == stages else _STAGE, rows[row + 1])
            if ev is None:
                return None
        est = weights[stages + 1] @ rows
        err = float(np.maximum.reduce(np.abs(est))) / self.step_tol
        return y, ev[0], ev[1], err

    def next_dt(self, dt: float, err: float) -> float:
        """Next step length after a step of length dt with scaled error err.

        The local error scales as dt^3, so ``dt * err^(-1/3)`` is the step
        that meets the tolerance; ``dt_safety`` scales it (at 0.8, the usual
        controller margin), and the change per step is bounded.
        """
        if err == 0.0:
            return _GROWTH_MAX * dt
        fac = self.dt_safety * err ** (-1.0 / 3.0)
        return dt * min(_GROWTH_MAX, max(_GROWTH_MIN, fac))

    def take(self, u, v, s, t, dt, stop=math.inf, level=_STEP):
        """One accepted step from the state (u, v, s) at t; dt is proposed.

        The step lands exactly on ``stop`` when a step of ``1.1 dt`` would
        reach it, which avoids a sliver step after ``stop``; only a landing
        step fills the record slots, any other fills ``level``.  A rejected
        step is retaken at the shorter length the controller proposes, never
        stretched onto ``stop``, so each retry is shorter than the last by at
        least the factor ``dt_safety``; ``rejected`` counts them.  Returns
        ``(u1, v1, s1, t1, h, dt_next)``: the state after a step of length
        h, and the next proposed length.  Raises ConeViolation if a stage
        leaves Gamma_2^+, and _StepFailed (a ValueError) if the error
        estimate is not finite or the step no longer advances t.
        """
        land = t + 1.1 * dt >= stop
        while True:
            if land:
                h, t1, lvl = stop - t, stop, _RECORD
            else:
                h, t1, lvl = dt, t + dt, level
            if not (math.isfinite(h) and t1 > t):
                raise _StepFailed("stalled", f"a step of length {h!r} does not advance "
                                             f"t = {t!r}")
            nxt = self.advance(u, v, s, h, lvl)
            if nxt is None:
                raise ConeViolation("an RKC stage leaves Gamma_2^+")
            u1, v1, s1, err = nxt
            if not math.isfinite(err):
                raise _StepFailed("non_finite", f"the RKC error estimate of a step of "
                                                f"length {h!r} is not finite")
            dt = self.next_dt(h, err)
            if err <= 1.0:
                return u1, v1, s1, t1, h, dt
            self.rejected += 1
            land = False


class _StepFailed(ValueError):
    """A step that cannot be accepted; ``status`` is flow_run's terminal status."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


def flow_run(background, u0, config: FlowConfig, grid: RadialGrid | None = None) -> FlowResult:
    """Integrate the normalized flow from ``u0`` until convergence or t_max.

    Terminal status is one of ``converged`` (velocity sup-norm under
    ``tol_converge``), ``t_max``, ``max_steps`` (``MAX_STEPS`` steps), ``timeout``,
    ``blow_up_suspected`` (min u fell through ``BLOWUP_FLOOR``), or one of
    three failures, which report a NaN ``equilibrium_residual``:
    ``non_finite`` (the velocity or a step's error estimate is NaN or
    infinite; the run stops at the last accepted state, or at t = 0 with
    no record when ``u0`` is not finite or some e^{c u0} of the kernel
    would overflow), ``stalled`` (a step the controller kept shortening no
    longer advances t) or ``cone_exit`` (the field left Gamma_2^+, at which
    point the velocity is undefined and integration must stop).  Every step
    is the one ``step`` takes, and it lands exactly on the record times
    ``i * record_dt`` and on ``t_max``.  ``timeout`` is checked between
    accepted steps.
    """
    u = np.array(u0, dtype=float)
    if grid is None:
        grid = background.make_grid(u.size)
    if u.shape != (grid.num_points,):
        raise ValueError("u0 does not match the grid")
    n = background.n
    if n <= 4:
        raise ValueError(f"the flow needs dimension n >= 5, got {n}")
    stepper = _Stepper(background, grid, config.eps, config.dt_safety, config.step_tol)

    records: list[MonitorRecord] = []
    t = 0.0
    steps = 0
    status = "max_steps"
    n_rec = 0
    prev_rec_t = 0.0
    prev_rec_f2 = 0.0
    max_f2_inc = -np.inf
    max_drift = 0.0
    t_start = time.monotonic()

    def push_record():
        nonlocal prev_rec_t, prev_rec_f2, n_rec
        meas = 0.0 if not records else (s[_S_F2] - prev_rec_f2) / (t - prev_rec_t)
        records.append(_record(t, s, meas))
        prev_rec_t = t
        prev_rec_f2 = s[_S_F2]
        n_rec += 1

    # a u0 that is not finite, or past the stepper's reach, ends the run
    # before the first evaluation
    ev = None
    s = [math.nan] * _NS
    if not np.max(np.abs(u)) <= stepper.reach:
        status = "non_finite"
    elif (ev := stepper.velocity(u, _RECORD)) is None:
        status = "cone_exit"
    else:
        v, s = ev
        v0_ref = s[_S_VEPS]
        dt = stepper.first_dt(s)
    while ev is not None:
        if t == n_rec * config.record_dt:
            push_record()
        if not math.isfinite(s[_S_SUPV]):
            status = "non_finite"
            break
        if s[_S_SUPV] <= config.tol_converge:
            status = "converged"
            break
        if s[_S_MINU] < BLOWUP_FLOOR:
            status = "blow_up_suspected"
            break
        if t >= config.t_max:
            status = "t_max"
            break
        if steps >= MAX_STEPS:
            status = "max_steps"
            break
        if config.timeout is not None and time.monotonic() - t_start > config.timeout:
            status = "timeout"
            break
        try:
            u, v, s1, t, _, dt = stepper.take(
                u, v, s, t, dt, min(n_rec * config.record_dt, config.t_max))
        except ConeViolation:
            status = "cone_exit"
            break
        except _StepFailed as failure:
            status = failure.status
            break
        max_drift = max(max_drift, abs(s1[_S_VEPS] - v0_ref) / v0_ref)
        max_f2_inc = max(max_f2_inc, s1[_S_F2] - s[_S_F2])
        s = s1
        steps += 1

    if ev is not None and status != "cone_exit" and (not records or records[-1].t < t):
        if len(s) < _NS:
            # the run stopped between record times; the state passed the
            # cone check when it was accepted, so this evaluation succeeds
            s = stepper.velocity(u, _RECORD)[1]
        push_record()

    # the state a reporting status ends on is a record, whose slots hold it
    residual = math.nan
    if status not in ("cone_exit", "non_finite", "stalled"):
        residual = s[_S_RESID]

    return FlowResult(
        status=status,
        t=t,
        steps=steps,
        u=u,
        grid=grid,
        config=config,
        records=records,
        F2=s[_S_F2],
        V_eps=s[_S_VEPS],
        r_eps=s[_S_REPS],
        s_eps=s[_S_SEPS],
        equilibrium_residual=residual,
        max_step_F2_increase=(0.0 if max_f2_inc == -np.inf else max_f2_inc),
        max_V_drift=max_drift,
        evaluations=stepper.evaluations,
        rejected_steps=stepper.rejected,
    )


# ---------------------------------------------------------------------------
# single-step driver

def _probe(background, field: ConformalField, eps: float, dt_safety: float = 0.8):
    """A stepper for the field's grid, and one velocity evaluation with every
    slot at the field; returns (stepper, v, slots)."""
    stepper = _Stepper(background, field.grid, eps, dt_safety)
    ev = stepper.velocity(field.u, _RECORD)
    if ev is None:
        raise ConeViolation("field leaves Gamma_2^+; the flow velocity is undefined")
    return stepper, *ev


def velocity(background, field: ConformalField, eps: float) -> np.ndarray:
    """du/dt of the normalized flow at this field (raises on cone exit)."""
    _, v, _ = _probe(background, field, eps)
    return v


@dataclass(frozen=True)
class FlowState:
    """One integrator state: the field plus its step bookkeeping.

    ``dt`` is the length of the next step, as proposed by the controller.
    ``velocity`` and ``slots`` are the kernel's output at ``field.u``, which
    the next step starts from; ``flow_state`` and ``step`` fill them.
    ``stepper`` holds the settings ``flow_state`` checked; only ``flow_state``
    builds it.
    """

    field: ConformalField
    t: float
    dt: float
    monitors: MonitorRecord
    velocity: np.ndarray
    slots: list
    stepper: _Stepper


def flow_state(background, field: ConformalField, eps: float,
               dt_safety: float = 0.8) -> FlowState:
    """Package a field as a steppable state at t = 0, with monitors evaluated.

    The first step is the explicit parabolic step ``dt_safety h^2 / lambda_max``;
    the error controller takes over from there.  ``eps`` and ``dt_safety``
    are checked as ``FlowConfig`` checks them.
    """
    FlowConfig(eps=eps, dt_safety=dt_safety)
    stepper, v, s = _probe(background, field, eps, dt_safety)
    return FlowState(field, 0.0, float(stepper.first_dt(s)), _record(0.0, s, math.nan),
                     v, s, stepper)


def step(state: FlowState) -> FlowState:
    """Advance one accepted RKC step of proposed length ``state.dt``.

    This is the step flow_run takes, from the same routine: a step whose
    error estimate exceeds the tolerance is retaken with the shorter length
    the controller proposes, so ``t`` advances by at most ``state.dt``.  The
    kernel runs once per RKC stage: the step starts from the velocity the
    state carries, with the state's stepper.  Raises ConeViolation if any
    stage leaves Gamma_2^+.  A step that cannot be accepted raises
    ValueError: the velocity or the error estimate is not finite, or the
    step length no longer advances ``t``.
    """
    if not math.isfinite(state.slots[_S_SUPV]):
        raise ValueError(f"the velocity at t = {state.t!r} is not finite")
    u1, v1, s1, t1, h, dt = state.stepper.take(state.field.u, state.velocity, state.slots,
                                               state.t, state.dt, level=_RECORD)
    rec = _record(t1, s1, (s1[_S_F2] - state.monitors.F2) / h)
    return FlowState(ConformalField(state.field.grid, u1), t1, float(dt), rec, v1, s1,
                     state.stepper)


# ---------------------------------------------------------------------------
# equilibrium solves: converge on a coarse grid first

#: points of the grid on which an equilibrium solve converges first; a
#: solve on fewer points converges on its own grid first
_COARSE_POINTS = 32
#: sup |v| at which the coarse flow hands its state to Newton; the relaxation
#: converges only linearly from here on
_NEWTON_SWITCH = 1e-2
#: step tolerance of the coarse flow phase, whatever the caller's: that phase
#: only globalizes Newton, so its path need not be accurate, but at a looser
#: one its steps grow until it plateaus short of the switch to Newton.  Of
#: 48 starts at n = 9-20 on 128 points, 27 did not converge within 5 s at 1e-2
#: and 12 at 3e-3 (11 at n = 20, largest step there 0.166); at 1e-5 all did
#: (largest step at n = 20 0.075), and so did 408 more starts at n = 5-60
_COARSE_STEP_TOL = 1e-5
#: most Newton iterations of one coarse stage, the polish included
_NEWTON_MAX_ITERATIONS = 20
#: relative increment of the forward-difference Jacobian, sqrt(machine eps)
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _newton_direction(stepper: _Stepper, u, v):
    """The Newton step at u, whose velocity is v, or None.

    The Jacobian is taken by forward differences of ``stepper.velocity``, one
    evaluation per node.  It is singular twice over: v(u + c) = v(u), and
    ``sum(w e^{(2 eps - n) u} v) = 0`` for every u, since s_eps is that
    weighted mean.  So it is bordered by a column of ones (a multiplier that
    takes up the part of -v outside its range) and by the V_eps weights as
    last row (the step keeps V_eps to first order).  None when a difference
    leaves the cone or the bordered matrix is singular.
    """
    size = u.size
    a = np.zeros((size + 1, size + 1))
    for j in range(size):
        du = _FD_STEP * max(1.0, abs(u[j]))
        shifted = u.copy()
        shifted[j] += du
        ev = stepper.velocity(shifted, _STAGE)
        if ev is None:
            return None
        a[:size, j] = (ev[0] - v) / du
    a[:size, size] = 1.0
    a[size, :size] = stepper.weights * np.exp(stepper.exponents[1] * u)
    rhs = np.zeros(size + 1)
    rhs[:size] = -v
    try:
        delta = np.linalg.solve(a, rhs)[:size]
    except np.linalg.LinAlgError:
        return None
    return delta if np.isfinite(delta).all() else None


def _newton_finish(stepper: _Stepper, u, tol: float, deadline: float | None):
    """Newton with full steps from u, near an equilibrium, to sup |v| <= tol.

    A step is accepted while it cuts sup |v| to below 3/4 of its value (the
    sufficient decrease of Deuflhard, *Newton Methods for Nonlinear
    Problems*, 2004, ch. 3, at the full step).  Once sup |v| <= tol, steps
    go on while they lower sup |v| at all: they remove the roundoff-sized
    wiggle a stop at tol leaves, which interpolation onto a finer grid
    would magnify.  Returns ``(u, status, iterations)``: the last accepted
    state, a ``flow_run`` status and the accepted steps.  The status is
    ``converged`` at sup |v| <= tol, ``timeout`` once the deadline
    (``time.monotonic``) has passed, and ``stalled`` when Newton ends short
    of tol otherwise (a rejected step, a trial state outside Gamma_2^+ or
    past e^x's float range, a difference outside the cone, a singular solve
    or ``_NEWTON_MAX_ITERATIONS``).
    """
    v, s = stepper.velocity(u, _STEP)
    iterations = 0
    while iterations < _NEWTON_MAX_ITERATIONS and (deadline is None
                                                   or time.monotonic() < deadline):
        bound = s[_S_SUPV] if s[_S_SUPV] <= tol else 0.75 * s[_S_SUPV]
        delta = _newton_direction(stepper, u, v)
        if delta is None:
            break
        trial = u + delta
        ev = stepper.velocity(trial, _STEP) if np.max(np.abs(trial)) <= stepper.reach else None
        if ev is None or not ev[1][_S_SUPV] < bound:
            break
        u, (v, s) = trial, ev
        iterations += 1
    if s[_S_SUPV] <= tol:
        status = "converged"
    elif deadline is not None and time.monotonic() >= deadline:
        status = "timeout"
    else:
        status = "stalled"
    return u, status, iterations


class CoarseStage(NamedTuple):
    """The coarse-grid stage of an equilibrium solve: the status of its flow
    phase, or of Newton once that phase converged, its grid's points
    (min(N, ``_COARSE_POINTS``) for a solve on N), and the kernel
    evaluations and Newton steps of both phases, which do not depend on the
    caller's ``step_tol`` or ``record_dt``."""

    status: str
    points: int
    evaluations: int
    newton_iterations: int


def _equilibrium_run(background, u0, config: FlowConfig, grid: RadialGrid):
    """``flow_run`` to an equilibrium, started from the coarse grid's one.

    Nested iteration (Brandt, Math. Comp. 31, 1977): u0 is interpolated onto
    ``_COARSE_POINTS`` points of the same background (kept in ``grid._ops``),
    or stays on ``grid`` when that has no more points (the interpolation is
    then the identity, and the coarse stage converges on ``grid`` itself).
    There the flow runs until sup |v| <= max(``_NEWTON_SWITCH``,
    ``tol_converge``), which globalizes (Newton from u0 alone stalls on some
    starts), and ``_newton_finish`` takes the field on to ``tol_converge``.
    Only that flow's end state is read, so it steps at ``_COARSE_STEP_TOL``
    and lands on no record time (``record_dt`` >= ``t_max``), whatever
    ``config`` says; its other settings are ``config``'s.  A ``converged``
    coarse field is interpolated back and shifted to the V_eps of u0 on
    ``grid``, so the fine run, to the same ``tol_converge``, conserves what a
    run from u0 does; any other is dropped, and the fine run starts from u0.

    Every solve that stops on convergence (``tol_converge > 0``) starts
    coarse, unless its u0 is one that ``flow_run`` does not step from on
    ``grid`` (not finite, outside the cone there, or converged already): a
    ``t_max = 0`` run finds that in one evaluation, and its result is the
    plain run's.  A solve with ``tol_converge = 0`` is a plain ``flow_run``.

    Returns ``(result, coarse)``: the fine run, whose ``evaluations`` count
    every evaluation of the solve and whose ``config`` is ``config``, and
    the ``CoarseStage`` or None.  ``config.timeout`` bounds the whole solve:
    each stage gets what the ones before it left.
    """
    if config.tol_converge <= 0.0:
        return flow_run(background, u0, config, grid=grid), None
    deadline = None if config.timeout is None else time.monotonic() + config.timeout
    probe = flow_run(background, u0, replace(config, t_max=0.0), grid=grid)
    if probe.status != "t_max":
        return replace(probe, config=config), None
    key = ("coarse", background)
    if grid.num_points > _COARSE_POINTS and key not in grid._ops:
        grid._ops[key] = background.make_grid(_COARSE_POINTS)
    coarse_grid = grid._ops.get(key, grid)
    switch = max(_NEWTON_SWITCH, config.tol_converge)
    relax = flow_run(background, np.interp(coarse_grid.x, grid.x, u0),
                     replace(config, tol_converge=switch, step_tol=_COARSE_STEP_TOL,
                             record_dt=max(config.record_dt, config.t_max)),
                     grid=coarse_grid)
    u, status, iterations, evaluations = relax.u, relax.status, 0, relax.evaluations
    if relax.converged:
        stepper = _Stepper(background, coarse_grid, config.eps, config.dt_safety)
        u, status, iterations = _newton_finish(stepper, u, config.tol_converge, deadline)
        evaluations += stepper.evaluations
    coarse = CoarseStage(status, coarse_grid.num_points, evaluations, iterations)
    start = u0
    if status == "converged":
        start = np.interp(grid.x, coarse_grid.x, u)
        k = 2.0 * config.eps - background.n
        if k != 0.0:
            # V_eps(u + c) = e^{k c} V_eps(u); at k = 0, V_eps is the volume
            start += math.log(functional_V(grid, background, u0, config.eps)
                              / functional_V(grid, background, start, config.eps)) / k
    fine = config
    if deadline is not None:
        fine = replace(config, timeout=max(0.0, deadline - time.monotonic()))
    res = flow_run(background, start, fine, grid=grid)
    work = probe.evaluations + evaluations + res.evaluations
    return replace(res, config=config, evaluations=work), coarse


# ---------------------------------------------------------------------------
# eigenvalue mode

@dataclass
class EigenResult:
    lambda1: float
    u: np.ndarray
    flow: FlowResult
    coarse: CoarseStage | None = None


def eigen_solve(background, u0, config: FlowConfig | None = None,
                grid: RadialGrid | None = None) -> EigenResult:
    """First nonlinear eigenvalue of the sigma_2 operator via the eps=2 flow.

    At eps = 2 the equilibrium equation is sigma_2(W) = lambda with the
    regularized volume V_2 held fixed, and the converged normalizer r_2 is
    the eigenvalue.  Different admissible starts converge to conformal
    factors agreeing up to an additive constant.

    A solve that stops on convergence converges on min(N, 32) points first
    (``coarse``, a ``CoarseStage``; None when ``tol_converge`` is 0 or u0
    is not steppable), by the flow down to sup |v| = 1e-2 (at
    ``_COARSE_STEP_TOL``, with no records) and full Newton steps from there
    (``coarse.newton_iterations``), and finishes on ``grid`` from the
    interpolated coarse equilibrium, or from u0 when the coarse stage does
    not converge.  On S^5 at 512 points that takes about 420 evaluations
    where the flow alone takes 38,000, and lambda1 agrees with a single-grid
    solve to about 1e-14 relative.  The fine run steps at the config's
    ``step_tol`` (``STEP_TOL`` without a ``config``).
    ``flow`` is the fine run, except that its ``evaluations`` count every
    kernel evaluation of the solve, Newton's included.
    """
    if config is None:
        config = FlowConfig(eps=2.0, t_max=200.0)
    if config.eps != 2.0:
        raise ValueError("the eigenvalue mode runs the eps = 2 flow")
    if grid is None:
        grid = background.make_grid(np.size(u0))
    res, coarse = _equilibrium_run(background, u0, config, grid)
    return EigenResult(lambda1=res.r_eps, u=res.u, flow=res, coarse=coarse)


# ---------------------------------------------------------------------------
# continuation in eps

@dataclass
class ContinuationRung:
    eps: float
    status: str
    Y_eps: float
    Y2_estimate: float
    F2: float
    V_eps: float
    r_eps: float
    u: np.ndarray
    evaluations: int
    coarse: CoarseStage | None = None


def continuation(background, u0, eps_ladder,
                 base_config: FlowConfig | None = None) -> list[ContinuationRung]:
    """Descend the eps-ladder, warm-starting each rung from the previous one.

    Per rung two scale-invariant energies are reported: ``Y_eps`` uses the
    V_eps normalization the rung actually ran with, ``Y2_estimate`` the plain
    volume normalization (the quantity the ladder estimates); both come from
    ``scale_invariant_energy``, so ``Y_eps`` is NaN at 2 eps = n.  The ladder
    stops early if a rung fails to converge or leaves the cone.

    Every rung is an equilibrium solve, as ``eigen_solve`` is: its ``coarse``
    stage (a ``CoarseStage``) and its ``evaluations`` count both grids, and
    it finishes on the grid of u0 at ``base_config``'s settings (``STEP_TOL``
    without a ``base_config``).  A warm rung that starts at its equilibrium
    (on a round sphere) ends at its first evaluation, with no coarse stage.
    """
    if base_config is None:
        base_config = FlowConfig(eps=0.0, t_max=200.0)
    n = background.n
    rungs: list[ContinuationRung] = []
    u = np.array(u0, dtype=float)
    grid = background.make_grid(u.size)
    for eps in eps_ladder:
        eps = float(eps)
        res, coarse = _equilibrium_run(background, u, replace(base_config, eps=eps), grid)
        if res.status == "cone_exit":
            # the velocity, and with it the rung's energy, is undefined there
            res = replace(res, F2=math.nan, V_eps=math.nan, r_eps=math.nan)
        vol = functional_V(res.grid, background, res.u, 0.0)
        rungs.append(ContinuationRung(
            eps, res.status, scale_invariant_energy(res.F2, res.V_eps, n, eps),
            scale_invariant_energy(res.F2, vol, n), res.F2, res.V_eps, res.r_eps, res.u,
            res.evaluations, coarse))
        if res.status not in ("converged", "t_max"):
            break
        u = res.u
    return rungs


# ---------------------------------------------------------------------------
# CSV output

def write_monitor_csv(records, path) -> None:
    """Write the monitor trace to the file at ``path``, 17 significant
    digits per field.

    The formatting (plus the deterministic accumulation in the kernels)
    makes repeated runs byte-identical.
    """
    lines = [",".join(MONITOR_COLUMNS)]
    for rec in records:
        lines.append(",".join(f"{v:.17g}" for v in rec))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
