"""Oracles and output checks of the sigma2flow benchmark.

Every oracle here is computed apart from the program: closed forms through
``math.gamma`` and one ``scipy.integrate.quad``.  Every check returns a list
of problems; an empty list means the output passed.  None of them compares
against a stored copy of the program's output.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: the nine columns of the monitor CSV, in order
CSV_COLUMNS = ("t", "F2", "V_eps", "r_eps", "s_eps", "min_sigma2", "sup_grad",
               "dF2dt_measured", "dF2dt_formula")

#: criterion 5: lambda_1 tolerance per dimension (S^5, S^9)
EIGEN_TOL = {5: 1e-4, 9: 4e-4}


# ---------------------------------------------------------------------------
# oracles

def sphere_volume(n: int) -> float:
    """vol(S^n) = 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def round_y2(n: int) -> float:
    """The round energy level Y2(S^n) = 2n(n-1) (vol(S^n)/2^n)^{4/n}."""
    return 2.0 * n * (n - 1) * bubble_b(n) ** (4.0 / n)


def bubble_b(n: int) -> float:
    """B = integral over R^n of (1+|x|^2)^{-n} = vol(S^n)/2^n."""
    return sphere_volume(n) / 2.0 ** n


def bubble_c(n: int) -> float:
    """C = integral over R^n of (|x|^2/(2n) + 2|x|^4/(n(n+2))) (1+|x|^2)^{2-n}.

    Radial integral by adaptive quadrature, split at y = 1.
    """
    from scipy.integrate import quad

    def f(y):
        yy = y * y
        poly = yy / (2.0 * n) + 2.0 * yy * yy / (n * (n + 2.0))
        return y ** (n - 1) * poly * (1.0 + yy) ** (2.0 - n)

    kw = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 400}
    inner, _ = quad(f, 0.0, 1.0, **kw)
    outer, _ = quad(f, 1.0, math.inf, **kw)
    return sphere_volume(n - 1) * (inner + outer)


def k2_target(n: int, delta_r: float) -> float:
    """The lam^2 energy response B^{(4-n)/n} C delta_r."""
    return bubble_b(n) ** ((4.0 - n) / n) * bubble_c(n) * delta_r


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# ---------------------------------------------------------------------------
# admissible starts (independent of the program's kernels)

def schouten_sigmas(n: int, x, u, up, upp):
    """sigma_1, sigma_2 of the Schouten tensor of e^{-2u} g_round on S^n.

    For a latitude-symmetric u the tensor ``1/2 g0 + Hess u + du du -
    |du|^2 g0 / 2`` has the radial eigenvalue ``1/2 + u'' + u'^2/2`` and
    the lateral one ``1/2 + cot(x) u' - u'^2/2`` (n-1 times), relative to g0.
    """
    lam_r = 0.5 + upp + 0.5 * up * up
    lam_t = 0.5 + np.cos(x) / np.sin(x) * up - 0.5 * up * up
    s1 = lam_r + (n - 1) * lam_t
    s2 = (n - 1) * lam_r * lam_t + 0.5 * (n - 1) * (n - 2) * lam_t * lam_t
    return s1, s2


def cosine_sum(coeffs, x):
    """u = sum_k a_k cos(k x) and its first two derivatives."""
    u = np.zeros_like(x)
    up = np.zeros_like(x)
    upp = np.zeros_like(x)
    for k, a in enumerate(coeffs, start=1):
        u += a * np.cos(k * x)
        up -= k * a * np.sin(k * x)
        upp -= k * k * a * np.cos(k * x)
    return u, up, upp


def in_cone(n: int, coeffs) -> bool:
    """Whether the cosine sum keeps sigma_1 and sigma_2 above 0.05 on S^n."""
    x = np.linspace(0.0, math.pi, 2001)[1:-1]
    s1, s2 = schouten_sigmas(n, x, *cosine_sum(coeffs, x))
    return bool(s1.min() > 0.05 and s2.min() > 0.05)


# ---------------------------------------------------------------------------
# relax: eigen, pair and continuation runs

def check_eigen(n: int, lambda1: float, status: str) -> list[str]:
    """Criterion 5: converged, lambda_1 = n(n-1)/8 within its tolerance."""
    bad = []
    if status != "converged":
        bad.append(f"S^{n} eigen run ended with status {status}")
    target = n * (n - 1) / 8.0
    if not abs(lambda1 - target) <= EIGEN_TOL[n]:
        bad.append(f"S^{n} lambda_1 = {lambda1!r}, expected {target} +- {EIGEN_TOL[n]}")
    return bad


def check_same_mod_constants(u_a, u_b) -> list[str]:
    """Criterion 5: two converged fields agree up to an additive constant."""
    half_spread = float(np.ptp(np.asarray(u_a) - np.asarray(u_b))) / 2.0
    if not half_spread < 1e-3:
        return [f"two starts differ by more than a constant: {half_spread:.3e}"]
    return []


def check_f2_monotone(f2_records, max_step_increase: float, f2_final: float) -> list[str]:
    """Criterion 4: F2 never rises by more than 1e-10 |F2|."""
    f2 = np.asarray(f2_records, dtype=float)
    bad = []
    if f2.size and not np.all(np.diff(f2) <= 1e-10 * np.abs(f2[:-1])):
        bad.append("F2 increases between records")
    if not max_step_increase <= 1e-10 * abs(f2_final):
        bad.append(f"F2 increases within a step by {max_step_increase:.3e}")
    return bad


def check_conservation(main, half) -> list[str]:
    """Criterion 3 on a (dt_safety, dt_safety/2) pair of FlowResults to t = 10."""
    bad = []
    for res in (main, half):
        if res.status != "t_max" or abs(res.t - 10.0) > 1e-12:
            bad.append(f"run ended with status {res.status} at t = {res.t!r}")
    if not main.max_V_drift <= 1e-6:
        bad.append(f"V drift {main.max_V_drift:.3e} > 1e-6")
    if not half.max_V_drift <= main.max_V_drift / 1.9:
        bad.append(f"halving the step cut the drift only from {main.max_V_drift:.3e} "
                   f"to {half.max_V_drift:.3e}")
    return bad


def check_ladder(n: int, ladder, rungs) -> list[str]:
    """Criterion 6: every rung converged to the round energy level within 0.1%."""
    bad = []
    if [r.eps for r in rungs] != list(ladder):
        bad.append(f"ladder stopped at {[r.eps for r in rungs]}")
    y2 = round_y2(n)
    for r in rungs:
        if r.status != "converged":
            bad.append(f"rung eps={r.eps} ended with status {r.status}")
        if not rel_err(r.Y2_estimate, y2) < 1e-3:
            bad.append(f"rung eps={r.eps}: Y2 estimate {r.Y2_estimate!r}, oracle {y2!r}")
    return bad


# ---------------------------------------------------------------------------
# construct: comparison metric

def check_constants(n: int, B: float, C: float) -> list[str]:
    """B and C of ``sphere_constants`` to 1e-8 of the oracles."""
    bad = []
    if not rel_err(B, bubble_b(n)) <= 1e-8:
        bad.append(f"n={n}: B = {B!r}, vol(S^n)/2^n = {bubble_b(n)!r}")
    if not rel_err(C, bubble_c(n)) <= 1e-8:
        bad.append(f"n={n}: C = {C!r}, quadrature gives {bubble_c(n)!r}")
    return bad


def slope_residual(alpha, r, A: float, n: int):
    """Defect of (n-4)/4 + (r a' - A r^2 a) / (2a - a^2 - A r^2 a) = 0.

    ``alpha`` is the slope as a callable; a' is the fourth-order central
    difference, whose truncation and rounding errors both stay near 1e-12.
    """
    r = np.asarray(r, dtype=float)
    h = 1e-3 * r
    a = alpha(r)
    ap = (8.0 * (alpha(r + h) - alpha(r - h))
          - (alpha(r + 2.0 * h) - alpha(r - 2.0 * h))) / (12.0 * h)
    return 0.25 * (n - 4) + (r * ap - A * r * r * a) / (2.0 * a - a * a - A * r * r * a)


def check_glue(n: int, lam: float, gamma: float, delta: float, delta1: float,
               residual_max: float, cone_ok: bool) -> list[str]:
    """Criterion 9: slope equation, outer radius at 2/gamma - 1, the cone."""
    bad = []
    if not residual_max < 1e-8:
        bad.append(f"n={n}: slope-equation residual {residual_max:.3e}")
    ratio = delta1 ** (0.5 * (n - 4)) * lam / delta ** (0.5 * n)
    target = 2.0 / gamma - 1.0
    if not abs(ratio / target - 1.0) <= 0.05:
        bad.append(f"n={n}: delta1 ratio {ratio!r}, expected {target} within 5%")
    if not cone_ok:
        bad.append(f"n={n}: the annulus leaves the cone")
    return bad


def check_sweep(n: int, margins, k2_fit: float, delta_r: float) -> list[str]:
    """Criterion 10: positive margins; the fitted lam^2 response within 10%."""
    bad = []
    if not all(m > 0.0 for m in margins):
        bad.append(f"n={n}: margins {margins} not all positive")
    dev = rel_err(k2_fit, k2_target(n, delta_r))
    if not dev <= 0.10:
        bad.append(f"n={n}: lam^2 response {k2_fit!r} off B^((4-n)/n) C dR by {dev:.3f}")
    return bad


def check_assembled(n: int, beta: float, rep, delta_r: float) -> list[str]:
    """An AssembledMetric: oracle Y2 and lam^2 target, margin, proof-range flag."""
    bad = []
    if not rel_err(rep.Y2_sphere, round_y2(n)) <= 1e-8:
        bad.append(f"n={n}: Y2_sphere {rep.Y2_sphere!r}, oracle {round_y2(n)!r}")
    if not abs(rep.margin - (rep.Y2_sphere - rep.F2_tilde)) <= 1e-12 * rep.Y2_sphere:
        bad.append(f"n={n}: margin is not Y2 - F2_tilde")
    if rep.beta_in_proof_range != (0.25 < beta < (n - 4.0) / (2.0 * n)):
        bad.append(f"n={n}: beta_in_proof_range wrong for beta={beta}")
    if not rel_err(rep.lambda2_target, k2_target(n, delta_r)) <= 1e-7:
        bad.append(f"n={n}: lambda2_target {rep.lambda2_target!r}, "
                   f"oracle {k2_target(n, delta_r)!r}")
    if not math.isfinite(rep.F2_tilde) or rep.flat is None:
        bad.append(f"n={n}: no finite energy or no flat twin")
    return bad


# ---------------------------------------------------------------------------
# cli: process outputs

def strict_json(text: str) -> dict:
    """Parse a summary as JSON proper: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def check_csv(text: str) -> tuple[list[str], np.ndarray]:
    """The nine-column monitor CSV: header, nine finite fields per row."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        return ["CSV header is not the nine monitor columns"], np.zeros((0, 9))
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            return [f"CSV row has {len(fields)} fields"], np.zeros((0, 9))
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            return [f"CSV row is not numeric: {line!r}"], np.zeros((0, 9))
    table = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
    if not np.all(np.isfinite(table)):
        return ["CSV holds non-finite values"], table
    return [], table


def check_reruns(first: bytes, second: bytes) -> list[str]:
    """Criterion 11: the same command writes the same bytes."""
    if first != second:
        return ["rerun output differs from the first run"]
    return []
