"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Timed criteria measure wall clock after a session-wide warm-up
run, so first-call costs are not charged against any runtime budget.
"""

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import sigma2flow
from sigma2flow.discretize import (
    ball_radius,
    integrate,
    sphere_latitude,
    sphere_measure,
)
from sigma2flow.flow import (
    FlowConfig,
    continuation,
    eigen_solve,
    flow_run,
    initial_field,
)
from sigma2flow.geometry import (
    FlatRadialBall,
    RoundSphere,
    divergence_identity_residual,
    normalized_F2,
    schouten_fields,
    schouten_pointwise,
)
from sigma2flow.symfun import (
    elementary_symmetric,
    jacobi_eigenvalues,
    sigma_k_minors,
)
from sigma2flow.testmetric import (
    BubbleParams,
    bernoulli_residual,
    glue_lemma6,
    margin_sweep,
    sphere_constants,
)

Y2_S5 = 39.003151786888736


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the Jacobi sweep and a short flow once before anything is timed."""
    jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
    grid = sphere_latitude(5, 32)
    flow_run(RoundSphere(5), initial_field("cosine", grid, 0.05),
             FlowConfig(eps=2.0, t_max=0.02, record_dt=0.01), grid=grid)


@pytest.fixture(scope="module")
def conserved_run():
    """The shared n=5 reference run, plus its halved-step twin."""
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 256)
    u0 = 0.1 * np.cos(grid.x)
    t0 = perf_counter()
    main = flow_run(sphere, u0, FlowConfig(
        eps=2.0, t_max=10.0, dt_safety=0.8, tol_converge=0.0), grid=grid)
    half = flow_run(sphere, u0, FlowConfig(
        eps=2.0, t_max=10.0, dt_safety=0.4, tol_converge=0.0), grid=grid)
    return {"main": main, "half": half, "wall": perf_counter() - t0}


def test_criterion_01_sigma2_route_agreement():
    """Three ways to sigma_2 agree to 1e-10 on 1000 random matrices, < 1 s."""
    rng = np.random.default_rng(20260815)
    t0 = perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = q @ np.diag(rng.standard_normal(m)) @ q.T
        a = 0.5 * (a + a.T)
        via_eigen = float(elementary_symmetric(jacobi_eigenvalues(a))[2])
        via_minors = sigma_k_minors(a, 2)
        via_traces = 0.5 * (np.trace(a) ** 2 - np.sum(a * a))
        scale = max(1.0, abs(via_eigen))
        worst = max(worst,
                    abs(via_minors - via_eigen) / scale,
                    abs(via_traces - via_eigen) / scale)
    wall = perf_counter() - t0
    assert worst < 1e-10
    assert wall < 1.0


def test_criterion_02_round_sphere_constants():
    """Quadrature volume, normalized energy, and the 2^n B identity, < 1 s."""
    t0 = perf_counter()
    grid = sphere_latitude(5, 128)
    vol = integrate(grid, np.ones(grid.num_points))
    assert vol == pytest.approx(np.pi ** 3, rel=1e-13)
    f2t = normalized_F2(grid, RoundSphere(5), np.zeros(grid.num_points))
    b5 = np.pi ** 3 / 32.0
    assert f2t == pytest.approx(2.0 * 5 * 4 * b5 ** 0.8, rel=1e-8)
    assert f2t == pytest.approx(2.5 * (np.pi ** 3) ** 0.8, rel=1e-8)
    assert f2t == pytest.approx(Y2_S5, rel=1e-8)
    for n in range(5, 13):
        assert sphere_measure(n) == pytest.approx(
            2.0 ** n * sphere_constants(n).B, rel=1e-12)
    assert perf_counter() - t0 < 1.0


def test_criterion_03_volume_conservation(conserved_run):
    """Relative V_2 drift <= 1e-6, halving the step cuts it >= 2x, < 30 s."""
    main, half = conserved_run["main"], conserved_run["half"]
    assert main.status == "t_max" and main.t == pytest.approx(10.0, abs=1e-12)
    assert half.status == "t_max"
    assert main.max_V_drift <= 1e-6
    assert half.max_V_drift <= main.max_V_drift / 1.9
    assert conserved_run["wall"] < 30.0


def test_criterion_04_energy_monotonicity(conserved_run):
    """F_2 never increases beyond 1e-10 |F_2|; dF_2/dt matches within 5%."""
    res = conserved_run["main"]
    f2 = np.array([rec.F2 for rec in res.records])
    assert np.all(np.diff(f2) <= 1e-10 * np.abs(f2[:-1]))
    assert res.max_step_F2_increase <= 1e-10 * abs(res.F2)
    # the measured rate is a difference quotient over each record interval,
    # so it is compared against the trapezoid average of the formula there
    measured = np.array([rec.dF2dt_measured for rec in res.records])[1:]
    formula = np.array([rec.dF2dt_formula for rec in res.records])
    formula = 0.5 * (formula[1:] + formula[:-1])
    floor = 1e-3 * np.abs(formula).max()
    mask = np.isfinite(measured) & (np.abs(formula) > floor)
    assert np.count_nonzero(mask) > 100
    rel = np.abs(measured[mask] - formula[mask]) / np.abs(formula[mask])
    assert rel.max() < 0.05


def test_criterion_05_eigenvalue_two_starts():
    """lambda_1 = n(n-1)/8 on S^5 and S^9; starts agree mod constants, < 2 min."""
    t0 = perf_counter()
    cases = (
        (5, 2.5, 1e-4, (("cosine", 0.1), ("bump", 0.05))),
        (9, 9.0, 4e-4, (("cosine", 0.1), ("bump", 0.15))),
    )
    for n, lam_true, tol, starts in cases:
        sphere = RoundSphere(n)
        grid = sphere_latitude(n, 128)
        finals = []
        for name, amplitude in starts:
            res = eigen_solve(sphere, initial_field(name, grid, amplitude))
            assert res.flow.status == "converged", (n, name)
            assert res.lambda1 == pytest.approx(lam_true, abs=tol)
            finals.append(res.u)
        # equal up to an additive constant: centered difference in sup-norm
        diff = finals[0] - finals[1]
        assert np.ptp(diff) / 2.0 < 1e-3
    assert perf_counter() - t0 < 120.0


def test_criterion_06_continuation_ladder():
    """Every rung of {2, 1.5, 1, 0.5, 0.25} recovers Y2 within 0.1%, < 5 min."""
    t0 = perf_counter()
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 256)
    rungs = continuation(sphere, initial_field("cosine", grid, 0.1),
                         (2.0, 1.5, 1.0, 0.5, 0.25))
    assert [r.eps for r in rungs] == [2.0, 1.5, 1.0, 0.5, 0.25]
    for rung in rungs:
        assert rung.status == "converged", rung.eps
        assert abs(rung.Y2_estimate - Y2_S5) / Y2_S5 < 1e-3, rung.eps
    assert perf_counter() - t0 < 300.0


def test_criterion_07_divergence_identity():
    """Discrete residual <= 1e-3 at N=200 and >= 3x smaller at N=400, < 5 s."""
    t0 = perf_counter()
    sphere = RoundSphere(5)
    residuals = []
    for num in (200, 400):
        grid = sphere_latitude(5, num)
        residuals.append(
            divergence_identity_residual(grid, sphere, 0.2 * np.cos(grid.x)))
    assert residuals[0] <= 1e-3
    assert residuals[1] <= residuals[0] / 3.0
    assert perf_counter() - t0 < 5.0


def test_criterion_08_bubble_trace_exactness():
    """Closed-form bubble traces match the Schouten pipeline to 1e-10, < 1 s."""
    t0 = perf_counter()
    n, lam = 9, 1e-4
    model = FlatRadialBall(n, 2.5)
    r = np.linspace(0.02, 2.2, 100)
    v = lam + r * r
    up, upp = 2.0 * r / v, 2.0 / v - 4.0 * r * r / (v * v)
    w_r, w_t, var = schouten_pointwise(model, r, up, upp)
    np.testing.assert_allclose(
        w_r + (n - 1) * w_t, 2.0 * n * lam / v ** 2, rtol=1e-10)
    np.testing.assert_allclose(
        w_r ** 2 + (n - 1) * w_t ** 2 + var, 4.0 * n * lam ** 2 / v ** 4, rtol=1e-10)
    # same comparison through the grid pipeline, whose derivatives are finite
    # differences: truncation-limited, so it carries its own tolerance
    grid = ball_radius(n, 400, 2.5)
    sf = schouten_fields(grid, model, np.log(lam + grid.x ** 2))
    sl = slice(50, 350)
    vg = lam + grid.x[sl] ** 2
    np.testing.assert_allclose(
        (sf.w_r + (n - 1) * sf.w_t)[sl], 2.0 * n * lam / vg ** 2, rtol=5e-4)
    np.testing.assert_allclose(
        (sf.w_r ** 2 + (n - 1) * sf.w_t ** 2 + sf.var)[sl],
        4.0 * n * lam ** 2 / vg ** 4, rtol=5e-4)
    assert perf_counter() - t0 < 1.0


def test_criterion_09_gluing_annulus():
    """Slope-equation residual < 1e-8, radius ratio at 1/3 within 5%, cone, < 10 s."""
    t0 = perf_counter()
    bp = BubbleParams(9, 1e-4)
    g = glue_lemma6(bp, 1.5)
    r = np.geomspace(g.delta, g.delta1, 257)
    assert np.abs(bernoulli_residual(r, g.a1, g.A, 9)).max() < 1e-8
    assert abs(3.0 * g.delta1_ratio - 1.0) <= 0.05
    assert g.cone_ok
    assert g.min_sigma1 > 0.0 and g.min_sigma2 > 0.0
    assert perf_counter() - t0 < 10.0


def test_criterion_10_curvature_margin():
    """Positive margins at three bubble scales; lam^2 fit within 10%, < 2 min."""
    t0 = perf_counter()
    sweep = margin_sweep()  # n=9, deficit -1, lam in {1e-3, 3e-4, 1e-4}
    assert sweep.lams == (1e-3, 3e-4, 1e-4)
    for margin in sweep.margins:
        assert margin > 0.0
    assert sphere_constants(9).C > 0.0
    assert sweep.K2_rel_dev <= 0.10
    assert perf_counter() - t0 < 120.0


def test_criterion_11_deterministic_cli(tmp_path):
    """Identical CLI invocations produce byte-identical CSV and JSON."""
    src_root = str(Path(sigma2flow.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    runs = {
        "flow": ["flow", "--grid-points", "96", "--t-max", "1.0",
                 "--tol-converge", "0", "--record-dt", "0.05"],
        "construct": ["construct"],
    }
    for name, base in runs.items():
        blobs = []
        for tag in ("a", "b"):
            json_path = tmp_path / f"{name}_{tag}.json"
            argv = base + ["--json", str(json_path)]
            if name == "flow":
                argv += ["--csv", str(tmp_path / f"{name}_{tag}.csv")]
            proc = subprocess.run(
                [sys.executable, "-m", "sigma2flow", *argv],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blob = json_path.read_bytes()
            if name == "flow":
                blob += (tmp_path / f"{name}_{tag}.csv").read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1], name
