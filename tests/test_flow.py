import contextlib
import math
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sigma2flow.discretize as discretize_module
import sigma2flow.flow as flow_module
from sigma2flow.discretize import ball_radius, sphere_latitude
from sigma2flow.flow import (
    INITIAL_FIELDS,
    MONITOR_COLUMNS,
    CoarseStage,
    FlowConfig,
    continuation,
    eigen_solve,
    flow_run,
    flow_state,
    initial_field,
    step,
    velocity,
    write_monitor_csv,
)
from sigma2flow.geometry import (
    ConeViolation,
    ConformalField,
    CurvatureModel,
    FlatRadialBall,
    RoundSphere,
    divergence_identity_residual,
    functional_V,
    schouten_fields,
)


@pytest.fixture(scope="module")
def s5_grid():
    return RoundSphere(5), sphere_latitude(5, 96)


@contextlib.contextmanager
def _alarm(seconds):
    """Raise TimeoutError in a block still running after ``seconds``."""
    def ring(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _gauge_h(s):
    """The flow gauge in closed form: 2 log s up to 1, s - 1 + log s above."""
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, 2.0 * np.log(s), s - 1.0 + np.log(s))


def _gauge_h_prime(s):
    s = np.asarray(s, dtype=float)
    return np.where(s <= 1.0, 2.0 / s, 1.0 + 1.0 / s)


def test_gauge_continuous_and_c1_at_the_knee():
    assert _gauge_h(1.0) == 0.0
    assert _gauge_h(1.0 - 1e-9) == pytest.approx(_gauge_h(1.0 + 1e-9), abs=1e-8)
    assert _gauge_h_prime(1.0 - 1e-9) == pytest.approx(2.0, rel=1e-6)
    assert _gauge_h_prime(1.0 + 1e-9) == pytest.approx(2.0, rel=1e-6)


def test_gauge_matches_its_derivative():
    s = np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(1.05, 4.0, 19)])
    h = 1e-6
    fd = (_gauge_h(s + h) - _gauge_h(s - h)) / (2 * h)
    np.testing.assert_allclose(_gauge_h_prime(s), fd, rtol=1e-7)


def test_gauge_monotone():
    s = np.linspace(0.01, 5.0, 400)
    assert np.all(np.diff(_gauge_h(s)) > 0)


def test_initial_field_registry(s5_grid):
    _, grid = s5_grid
    assert sorted(INITIAL_FIELDS) == ["bump", "constant", "cosine"]
    np.testing.assert_array_equal(initial_field("constant", grid, 0.3),
                                  np.full(grid.num_points, 0.3))
    cos = initial_field("cosine", grid, 0.1)
    np.testing.assert_allclose(cos, 0.1 * np.cos(grid.x), atol=1e-15)
    assert cos[0] == 0.1 and cos[-1] == -0.1
    bump = initial_field("bump", grid, 0.1)
    assert 0.95 * 0.1 <= bump.max() <= 0.1
    assert bump.min() >= 0.0
    with pytest.raises((KeyError, ValueError)):
        initial_field("sawtooth", grid)


def test_round_sphere_is_an_equilibrium(s5_grid):
    sphere, grid = s5_grid
    field = ConformalField(grid, np.zeros(grid.num_points))
    rec = flow_state(sphere, field, 2.0).monitors
    assert rec.r_eps == pytest.approx(2.5, rel=1e-13)
    assert rec.s_eps == pytest.approx(0.0, abs=1e-13)
    assert np.abs(velocity(sphere, field, 2.0)).max() < 1e-12


def test_velocity_raises_outside_cone(s5_grid):
    sphere, grid = s5_grid
    with pytest.raises(ConeViolation):
        velocity(sphere, ConformalField(grid, 3.0 * np.cos(grid.x)), 2.0)


def test_single_step_conserves_volume(s5_grid):
    sphere, grid = s5_grid
    field = ConformalField(grid, initial_field("cosine", grid, 0.1))
    st0 = flow_state(sphere, field, 2.0)
    assert st0.t == 0.0 and st0.dt > 0.0
    st1 = step(st0)
    assert st1.t == pytest.approx(st0.dt)
    v0 = functional_V(grid, sphere, st0.field.u, 2.0)
    v1 = functional_V(grid, sphere, st1.field.u, 2.0)
    assert abs(v1 - v0) / v0 < 1e-12
    assert st1.monitors.F2 < st0.monitors.F2
    assert math.isfinite(st1.monitors.dF2dt_measured)


def test_step_evaluates_the_kernel_once_per_stage(s5_grid, monkeypatch):
    sphere, grid = s5_grid
    state = flow_state(sphere, ConformalField(grid, initial_field("cosine", grid, 0.1)), 2.0)
    evals, stages = [], []
    real_velocity = flow_module._Stepper.velocity
    real_stage_count = flow_module._stage_count

    def counting_velocity(self, *args, **kwargs):
        evals.append(1)
        return real_velocity(self, *args, **kwargs)

    def counting_stages(*args):
        stages.append(real_stage_count(*args))
        return stages[-1]

    monkeypatch.setattr(flow_module._Stepper, "velocity", counting_velocity)
    monkeypatch.setattr(flow_module, "_stage_count", counting_stages)
    for _ in range(5):
        evals.clear()
        stages.clear()
        state = step(state)
        assert len(evals) == sum(stages) > 0


def test_step_chain_matches_fresh_evaluations(s5_grid):
    # the velocity a state carries is the kernel's at its field: stepping
    # from a fresh evaluation gives the same next state, bit for bit
    sphere, grid = s5_grid
    state = flow_state(sphere, ConformalField(grid, initial_field("cosine", grid, 0.1)), 2.0)
    for _ in range(20):
        fresh = flow_state(sphere, state.field, 2.0)
        assert fresh.velocity.tobytes() == state.velocity.tobytes()
        assert fresh.slots == state.slots
        ref = step(replace(state, velocity=fresh.velocity, slots=fresh.slots))
        state = step(state)
        assert state.field.u.tobytes() == ref.field.u.tobytes()
        assert (state.t, state.dt) == (ref.t, ref.dt)
        assert state.monitors == ref.monitors


def test_single_step_driver_checks_dt_safety(s5_grid):
    # from dt_safety = 1 on, a rejected step was retried at a length that is
    # rejected again, so step never returned; the alarm turns a hang into a
    # failure
    sphere, grid = s5_grid
    field = ConformalField(grid, initial_field("cosine", grid, 0.1))
    with _alarm(20):
        with pytest.raises(ValueError, match="dt_safety must be below 1"):
            flow_state(sphere, field, 2.0, dt_safety=2.0)
        # a state's dt_safety is its stepper's, which flow_state checked
        with pytest.raises(TypeError):
            replace(flow_state(sphere, field, 2.0), dt_safety=2.0)


def test_step_stops_when_a_retry_cannot_succeed(s5_grid, monkeypatch):
    sphere, grid = s5_grid
    u_nan = initial_field("cosine", grid, 0.1)
    u_nan[5] = math.nan
    good = flow_state(sphere, ConformalField(grid, initial_field("cosine", grid, 0.1)), 2.0)
    with _alarm(20):
        with pytest.raises(ValueError, match="velocity at t = 0.0 is not finite"):
            step(flow_state(sphere, ConformalField(grid, u_nan), 2.0))
        with pytest.raises(ValueError, match="does not advance t = 1.0"):
            step(replace(good, t=1.0, dt=1e-17))
        real = flow_module._Stepper.advance
        monkeypatch.setattr(flow_module._Stepper, "advance",
                            lambda self, *args: (*real(self, *args)[:3], math.nan))
        with pytest.raises(ValueError, match="error estimate .* is not finite"):
            step(good)


def test_a_rejected_landing_step_is_retaken_shorter(s5_grid, monkeypatch):
    # at dt_safety 0.95 the controller's retry after an error of 1.03 is
    # 0.94 of the rejected length, and 1.1 times that still reaches stop: a
    # retry stretched back onto stop repeats the rejected step, with the same
    # error, without end
    sphere, grid = s5_grid
    state = flow_state(sphere, ConformalField(grid, initial_field("cosine", grid, 0.1)), 2.0,
                       dt_safety=0.95)
    lengths = []
    real = flow_module._Stepper.advance

    def reject_first(self, u, v, s, dt, level):
        lengths.append(dt)
        u1, v1, s1, err = real(self, u, v, s, dt, level)
        return u1, v1, s1, (1.03 if len(lengths) == 1 else err)

    monkeypatch.setattr(flow_module._Stepper, "advance", reject_first)
    stop = state.dt
    with _alarm(20):
        *_, t1, h, _ = state.stepper.take(state.field.u, state.velocity, state.slots,
                                          0.0, state.dt, stop)
    assert lengths[0] == stop
    assert lengths[1] == pytest.approx(0.95 * 1.03 ** (-1.0 / 3.0) * stop, rel=1e-15)
    assert t1 == h == lengths[-1] < stop
    assert state.stepper.rejected == len(lengths) - 1 >= 1


def test_flow_run_counts_its_rejected_steps(monkeypatch):
    # every step attempt that take does not accept is a rejected step
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=0.05, tol_converge=0.0)
    plain = flow_run(sphere, u0, cfg, grid=grid)
    real = flow_module._Stepper.advance
    calls = []

    def reject_every_third(self, *args):
        calls.append(1)
        u1, v1, s1, err = real(self, *args)
        return u1, v1, s1, (2.0 if len(calls) % 3 == 0 else err)

    monkeypatch.setattr(flow_module._Stepper, "advance", reject_every_third)
    res = flow_run(sphere, u0, cfg, grid=grid)
    assert res.status == "t_max"
    assert res.rejected_steps == len(calls) - res.steps > plain.rejected_steps


def test_flow_run_ends_when_a_retry_cannot_succeed(monkeypatch):
    # each of these retried without end, or took a NaN error as accepted
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=1.0)
    with _alarm(20):
        res = flow_run(sphere, u0, replace(cfg, step_tol=1e-18), grid=grid)
        assert res.status == "stalled" and res.steps == 0
        assert math.isnan(res.equilibrium_residual)

        real = flow_module._Stepper.advance
        monkeypatch.setattr(flow_module._Stepper, "advance",
                            lambda self, *args: (*real(self, *args)[:3], math.inf))
        res = flow_run(sphere, u0, cfg, grid=grid)
        assert res.status == "non_finite" and res.steps == 0

        # the fifth attempt's estimate is NaN: the run stops at the state
        # the last accepted attempt reached
        accepted, calls = [], []

        def nan_fifth(self, *args):
            u1, v1, s1, err = real(self, *args)
            calls.append(1)
            if len(calls) == 5:
                return u1, v1, s1, math.nan
            if err <= 1.0:
                accepted.append(u1)
            return u1, v1, s1, err

        monkeypatch.setattr(flow_module._Stepper, "advance", nan_fifth)
        res = flow_run(sphere, u0, cfg, grid=grid)
    assert res.status == "non_finite" and math.isnan(res.equilibrium_residual)
    assert res.steps == len(accepted) > 0
    assert np.all(np.isfinite(res.u)) and res.u.tobytes() == accepted[-1].tobytes()
    assert res.records[-1].t == res.t and math.isfinite(res.F2)


def test_drivers_take_a_config_or_no_settings(s5_grid):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    with pytest.raises(TypeError):
        eigen_solve(sphere, u0, FlowConfig(eps=2.0, t_max=200.0), grid=grid, t_max=0.05)
    with pytest.raises(TypeError):
        continuation(sphere, u0, (2.0,), FlowConfig(eps=0.0, t_max=200.0), t_max=0.05)


def test_coarse_stage_ignores_the_step_tolerance_and_record_dt():
    # the coarse flow phase steps at its own tolerance and lands on no record
    # time, on 32 points or fewer too, where it runs on the requested grid;
    # an RKC step maps an equilibrium to itself, and the step error moves u
    # only by a constant, so r_2 and Y2 do not see the caller's step_tol
    sphere = RoundSphere(5)
    for points in (24, 32, 128):
        grid = sphere_latitude(5, points)
        u0 = initial_field("cosine", grid, 0.1)
        tight = eigen_solve(sphere, u0, grid=grid)
        loose = eigen_solve(sphere, u0, FlowConfig(eps=2.0, t_max=200.0, step_tol=1e-8),
                            grid=grid)
        sparse = eigen_solve(sphere, u0, replace(tight.flow.config, record_dt=1.0), grid=grid)
        assert tight.flow.config.step_tol == flow_module.STEP_TOL
        assert loose.flow.status == tight.flow.status == "converged"
        assert tight.coarse == loose.coarse == sparse.coarse
        assert tight.coarse.points == min(points, 32)
        assert abs(loose.lambda1 - tight.lambda1) <= 1e-12
        assert loose.flow.max_step_F2_increase <= 1e-12 * abs(loose.flow.F2)

        tight_rungs = continuation(sphere, u0, (2.0, 1.5))
        loose_rungs = continuation(sphere, u0, (2.0, 1.5),
                                   FlowConfig(eps=0.0, t_max=200.0, step_tol=1e-8))
        assert ([r.status for r in loose_rungs] == [r.status for r in tight_rungs]
                == ["converged"] * 2)
        assert loose_rungs[0].coarse == tight_rungs[0].coarse
        for a, b in zip(loose_rungs, tight_rungs):
            assert a.Y2_estimate == pytest.approx(b.Y2_estimate, rel=1e-12, abs=0.0)


def test_flow_run_decays_to_round(s5_grid):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=30.0, tol_converge=1e-10),
                   grid=grid)
    assert res.status == "converged"
    assert res.r_eps == pytest.approx(2.5, abs=1e-7)
    assert res.max_V_drift < 1e-9
    assert res.max_step_F2_increase <= 1e-10 * abs(res.F2)
    assert res.equilibrium_residual < 1e-4
    spread = res.u - res.u.mean()
    assert np.abs(spread).max() < 1e-6


def test_flow_run_from_a_packaged_field(s5_grid):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.08)
    cfg = FlowConfig(eps=2.0, t_max=0.3, tol_converge=0.0)
    a = flow_run(sphere, u0, cfg, grid=grid)
    field = ConformalField(grid, u0)
    b = flow_run(sphere, field.u, cfg, grid=field.grid)
    assert a.u.tobytes() == b.u.tobytes()
    assert a.steps == b.steps
    c = flow_run(sphere, field.u, FlowConfig(eps=2.0), grid=field.grid)
    assert c.status in ("converged", "t_max")


@pytest.mark.parametrize("bad", [
    {"dt_safety": 0.0}, {"dt_safety": -1.0}, {"dt_safety": math.nan},
    {"t_max": math.nan}, {"t_max": math.inf}, {"t_max": -1.0},
    {"record_dt": 0.0}, {"record_dt": -0.01}, {"record_dt": math.inf},
    {"eps": math.nan}, {"tol_converge": math.inf}, {"timeout": math.inf},
    {"timeout": math.nan}, {"timeout": -1.0}, {"tol_converge": -1.0},
    {"t_max": 1e6, "record_dt": 0.01},
    {"dt_safety": 1.0}, {"dt_safety": 2.0},
    {"step_tol": 0.0}, {"step_tol": -1e-8}, {"step_tol": math.nan},
])
def test_flow_config_rejects_bad_settings(bad):
    with pytest.raises(ValueError):
        FlowConfig(**{"eps": 2.0, **bad})


def test_flow_config_is_checked_on_every_copy():
    cfg = FlowConfig(eps=2.0, t_max=1.0, record_dt=0.01)
    with pytest.raises(ValueError, match="dt_safety must be positive"):
        replace(cfg, dt_safety=0.0)
    with pytest.raises(AttributeError):
        cfg.dt_safety = 0.0


def test_latitude_weights_vanish_at_both_poles():
    # sin(pi)^19 is 1.2e-304, not 0: as the x = pi weight of S^20 it made
    # the kernel's weighted sums underflow near the equilibrium
    sphere = RoundSphere(20)
    grid = sphere_latitude(20, 32)
    assert grid.weights[0] == grid.weights[-1] == 0.0
    with np.errstate(under="raise"):
        res = flow_run(sphere, initial_field("cosine", grid, 0.1), FlowConfig(eps=2.0),
                       grid=grid)
    assert res.status == "converged"


def test_flow_statuses(s5_grid, monkeypatch):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    # record_dt keeps the t_max / record_dt record times within MAX_STEPS
    with monkeypatch.context() as patch:
        patch.setattr(flow_module, "MAX_STEPS", 7)
        res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=5.0, record_dt=1.0,
                                              tol_converge=0.0), grid=grid)
    assert res.status == "max_steps" and res.steps == 7
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=1e9, record_dt=1e3,
                                          tol_converge=0.0, timeout=0.05), grid=grid)
    assert res.status == "timeout"
    res = flow_run(sphere, 3.0 * np.cos(grid.x),
                   FlowConfig(eps=2.0, t_max=1.0, tol_converge=0.0), grid=grid)
    assert res.status == "cone_exit"
    u_nan = initial_field("cosine", grid, 0.1)
    u_nan[5] = math.nan
    res = flow_run(sphere, u_nan, FlowConfig(eps=2.0, t_max=1.0), grid=grid)
    assert res.status == "non_finite" and res.steps == 0


def test_monitor_records_structure(s5_grid):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=0.2, record_dt=0.05,
                                          tol_converge=0.0), grid=grid)
    ts = [rec.t for rec in res.records]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(0.2, abs=1e-9)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    v0 = res.records[0].V_eps
    assert all(abs(rec.V_eps - v0) / v0 < 1e-10 for rec in res.records)


def test_records_land_on_the_record_grid(s5_grid):
    # record times are i * record_dt exactly, and the run ends exactly at t_max
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=0.3, record_dt=0.1,
                                          tol_converge=0.0), grid=grid)
    assert res.status == "t_max" and res.t == 0.3
    assert [rec.t for rec in res.records] == [0.0, 0.1, 0.2, 0.3]
    # every RKC step evaluates the kernel at least twice
    assert res.evaluations >= 2 * res.steps + 1


def test_write_monitor_csv_format(s5_grid, tmp_path):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=0.1, record_dt=0.05,
                                          tol_converge=0.0), grid=grid)
    write_monitor_csv(res.records, tmp_path / "a.csv")
    text = (tmp_path / "a.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(MONITOR_COLUMNS)
    assert len(lines) == len(res.records) + 1
    # 17 significant digits round-trip doubles exactly
    first = lines[1].split(",")
    assert float(first[1]) == res.records[0].F2
    write_monitor_csv(res.records, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_text() == text


def test_eigen_solver_round_s5(s5_grid):
    sphere, grid = s5_grid
    res = eigen_solve(sphere, initial_field("cosine", grid, 0.1))
    assert res.flow.status == "converged"
    assert res.lambda1 == pytest.approx(2.5, abs=1e-9)


def test_eigen_solver_runs_on_a_given_grid(s5_grid, monkeypatch):
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=0.05, tol_converge=0.0)
    flow_run(sphere, u0, cfg, grid=grid)

    def no_tables(grid, order):
        raise AssertionError("kernel tables rebuilt")

    monkeypatch.setattr(discretize_module, "stencil_tables", no_tables)
    res = eigen_solve(sphere, u0, cfg, grid=grid)
    assert res.flow.grid is grid
    assert res.u.tobytes() == flow_run(sphere, u0, cfg, grid=grid).u.tobytes()


def test_eigen_solver_rejects_other_eps(s5_grid):
    sphere, grid = s5_grid
    with pytest.raises(ValueError):
        eigen_solve(sphere, initial_field("cosine", grid, 0.1), FlowConfig(eps=1.5))


def test_continuation_warm_starts(s5_grid):
    sphere, grid = s5_grid
    rungs = continuation(sphere, initial_field("cosine", grid, 0.1), (2.0, 1.5),
                         FlowConfig(eps=0.0, t_max=100.0))
    assert [r.eps for r in rungs] == [2.0, 1.5]
    assert all(r.status == "converged" for r in rungs)
    for r in rungs:
        assert r.Y2_estimate == pytest.approx(39.003151786888736, rel=1e-12)
    assert rungs[0].Y_eps == pytest.approx(2.5, rel=1e-12)


def _residual_oracle(background, grid, u, eps, reps):
    """sup |sigma_2(W)^{1/2} - r_eps^{1/2} e^{(eps-2)u}| from schouten_fields."""
    f = schouten_fields(grid, background, u)
    target = math.sqrt(reps) * np.exp((eps - 2.0) * u)
    return float(np.max(np.abs(np.sqrt(np.maximum(f.sigma2, 0.0)) - target)))


def test_equilibrium_residual_is_the_schouten_formula():
    # the residual is a record slot of the one kernel; schouten_fields,
    # a separate stencil and Schouten pass, is the oracle
    sphere, ball = RoundSphere(5), FlatRadialBall(9, 1.0)
    grid = sphere_latitude(5, 96)
    flow = flow_run(sphere, initial_field("cosine", grid, 0.1),
                    FlowConfig(eps=2.0, t_max=0.3, tol_converge=0.0), grid=grid)
    field = _kernel_field(ball, 120)
    ball_run = flow_run(ball, field.u, FlowConfig(eps=1.0, t_max=1e-4, record_dt=1e-5,
                                                  tol_converge=0.0), grid=field.grid)
    grid9 = sphere_latitude(9, 48)
    eigen = eigen_solve(RoundSphere(9), initial_field("cosine", grid9, 0.1), grid=grid9).flow
    for background, res in ((sphere, flow), (ball, ball_run), (RoundSphere(9), eigen)):
        assert res.status in ("t_max", "converged")
        oracle = _residual_oracle(background, res.grid, res.u, res.config.eps, res.r_eps)
        assert abs(res.equilibrium_residual - oracle) <= 1e-15


# ---------------------------------------------------------------------------
# the velocity kernel against an evaluation built from the geometry module

_KERNEL_CASES = [
    (RoundSphere(5), 128),
    (RoundSphere(9), 160),
    (FlatRadialBall(9, 1.0), 120),
    (CurvatureModel(9, 1.0, -1.0, 0.3, 0.2), 120),
]


def _kernel_field(background, num_points):
    grid = background.make_grid(num_points)
    x = grid.x
    if isinstance(background, RoundSphere):
        u = 0.1 * np.cos(x) + 0.03 * np.cos(3.0 * x)
    else:
        u = 0.5 * x * x + 0.005 * np.cos(2.0 * np.pi * x / x[-1])
    return ConformalField(grid, u)


def _reference_flow(background, field, eps):
    """Velocity and monitors from schouten_fields, _gauge_h and the weights."""
    grid, u, n = field.grid, field.u, background.n
    f = schouten_fields(grid, background, u)
    w = grid.weights
    f2i = np.exp((4.0 - n) * u) * f.sigma2
    ev = np.exp((2.0 * eps - n) * u)
    F2, V = float(w @ f2i), float(w @ ev)
    r = F2 / V
    hd = _gauge_h(np.sqrt(f.sigma2)) - _gauge_h(math.sqrt(r) * np.exp((eps - 2.0) * u))
    s = float(w @ (ev * hd)) / V
    tang = np.where(background.pole_mask(grid.x), f.upp, f.up * background.lateral(grid.x))
    monitors = {
        "F2": F2, "V_eps": V, "r_eps": r, "s_eps": s,
        "min_sigma2": float(np.min(np.exp(4.0 * u) * f.sigma2)),
        "sup_grad": float(np.max(f.up ** 2 + np.maximum(np.abs(f.upp), np.abs(tang)))),
        "dF2dt_formula": -0.5 * (n - 4.0) * float(w @ (hd * (f2i - r * ev))),
    }
    return 0.5 * (hd - s), monitors, np.abs(hd).max()


@pytest.mark.parametrize("eps", [2.0, 0.5])
@pytest.mark.parametrize("background,num_points", _KERNEL_CASES,
                         ids=["S5", "S9", "flat_ball", "curvature_model"])
def test_velocity_matches_geometry_evaluation(background, num_points, eps):
    field = _kernel_field(background, num_points)
    # no floating-point exception anywhere on the kernel's or the fields' path
    with np.errstate(all="raise"):
        v_ref, mon, hd_scale = _reference_flow(background, field, eps)
        v = velocity(background, field, eps)
        rec = flow_state(background, field, eps).monitors
        run = flow_run(background, field.u, FlowConfig(eps=eps, t_max=0.05),
                       grid=field.grid)
        if field.grid.right_even:
            divergence_identity_residual(field.grid, background, field.u)
    assert run.status == "t_max"
    assert np.abs(v - v_ref).max() <= 1e-11 * np.abs(v_ref).max()
    assert rec.r_eps == pytest.approx(mon["r_eps"], rel=1e-12)
    assert rec.s_eps == pytest.approx(mon["s_eps"], rel=1e-12, abs=1e-12 * hd_scale)
    for name in ("F2", "V_eps", "r_eps", "min_sigma2", "sup_grad"):
        assert getattr(rec, name) == pytest.approx(mon[name], rel=1e-11), name
    assert rec.dF2dt_formula == pytest.approx(mon["dF2dt_formula"], rel=1e-9)


@pytest.mark.parametrize("background,num_points", _KERNEL_CASES,
                         ids=["S5", "S9", "flat_ball", "curvature_model"])
def test_kernel_and_schouten_fields_share_the_sigma_pair(background, num_points,
                                                        monkeypatch):
    # the kernel's sigma_1 and sigma_2 are those of schouten_fields, bit for bit
    seen = []
    real = flow_module.radial_schouten

    def capture(tables, d, sigma=None):
        w, sigma = real(tables, d, sigma)
        seen.append(sigma.copy())
        return w, sigma

    monkeypatch.setattr(flow_module, "radial_schouten", capture)
    field = _kernel_field(background, num_points)
    velocity(background, field, 2.0)
    f = schouten_fields(field.grid, background, field.u)
    [sigma] = seen
    assert sigma[0].tobytes() == f.sigma1.tobytes()
    assert sigma[1].tobytes() == f.sigma2.tobytes()


def _assert_record_is_full_evaluation(sphere, grid, u, eps, rec):
    full = flow_state(sphere, ConformalField(grid, u), eps).monitors
    for name in ("F2", "V_eps", "r_eps", "s_eps", "min_sigma2", "sup_grad",
                 "dF2dt_formula"):
        assert getattr(rec, name) == getattr(full, name), name


def test_records_equal_full_evaluations(s5_grid, monkeypatch):
    # each record of a run to t = 0.2 is read at the state that a run to the
    # record's own time ends in, since both runs take the same steps up to it
    sphere, grid = s5_grid
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=0.2, record_dt=0.05, tol_converge=0.0)
    res = flow_run(sphere, u0, cfg, grid=grid)
    assert len(res.records) == 5
    for k, rec in enumerate(res.records):
        part = res if k == 4 else flow_run(sphere, u0, replace(cfg, t_max=rec.t), grid=grid)
        assert part.t == rec.t
        _assert_record_is_full_evaluation(sphere, grid, part.u, 2.0, rec)
    # runs that end between record times: at t_max, on convergence, at
    # MAX_STEPS, here 5
    for cfg, max_steps in (
            (FlowConfig(eps=2.0, t_max=0.07, record_dt=0.05, tol_converge=0.0),
             flow_module.MAX_STEPS),
            (FlowConfig(eps=2.0, t_max=5.0, record_dt=0.05, tol_converge=1e-2),
             flow_module.MAX_STEPS),
            (FlowConfig(eps=2.0, t_max=5.0, record_dt=1.0, tol_converge=0.0), 5)):
        with monkeypatch.context() as patch:
            patch.setattr(flow_module, "MAX_STEPS", max_steps)
            res = flow_run(sphere, u0, cfg, grid=grid)
        assert res.records[-1].t == res.t
        assert res.t != round(res.t / cfg.record_dt) * cfg.record_dt
        _assert_record_is_full_evaluation(sphere, grid, res.u, 2.0, res.records[-1])


def test_stencil_tables_built_once_per_grid(monkeypatch):
    calls = []
    real = discretize_module.stencil_tables

    def counting(grid, order):
        calls.append((grid.num_points, order))
        return real(grid, order)

    monkeypatch.setattr(discretize_module, "stencil_tables", counting)
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=0.05, tol_converge=0.0)
    flow_run(sphere, u0, cfg, grid=grid)
    flow_run(sphere, u0, cfg, grid=grid)
    assert sorted(calls) == [(64, 1), (64, 2)]
    calls.clear()
    # the first rung runs on the 32-point coarse grid too: one build per grid
    continuation(sphere, u0, (2.0, 1.5, 1.0), FlowConfig(eps=0.0, t_max=0.05))
    assert sorted(calls) == [(32, 1), (32, 2), (64, 1), (64, 2)]
    calls.clear()
    # on 32 points the coarse stage runs on the requested grid, built once
    small = sphere_latitude(5, 32)
    assert eigen_solve(sphere, initial_field("cosine", small, 0.1), grid=small).coarse.points == 32
    assert sorted(calls) == [(32, 1), (32, 2)]


# ---------------------------------------------------------------------------
# equilibrium solves that converge on a coarse grid first; the oracle is the
# single-grid solve, plain flow_run from u0 on the requested grid

def _counted_flow_runs(monkeypatch):
    """Record the result of every flow_run call the drivers make."""
    results = []
    real = flow_module.flow_run

    def counting(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flow_module, "flow_run", counting)
    return results


def _counted_evaluations(monkeypatch):
    """Count every kernel evaluation, whichever stepper makes it: one list
    entry per call."""
    calls = []
    real = flow_module._Stepper.velocity

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(flow_module._Stepper, "velocity", counting)
    return calls


@pytest.mark.parametrize("n, points, init", [(5, 48, "cosine"), (5, 128, "cosine"),
                                             (9, 128, "bump"), (5, 512, "cosine")])
def test_eigen_coarse_start_matches_the_single_grid_solve(n, points, init, monkeypatch):
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, points)
    u0 = initial_field(init, grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=200.0, step_tol=1e-8)
    single = flow_run(sphere, u0, cfg, grid=grid)
    runs = _counted_flow_runs(monkeypatch)
    evaluations = _counted_evaluations(monkeypatch)
    res = eigen_solve(sphere, u0, grid=grid)
    assert single.status == res.flow.status == res.coarse.status == "converged"
    assert res.coarse.points == 32 and res.flow.grid is grid
    assert abs(res.lambda1 - single.r_eps) <= 1e-12
    assert np.ptp(res.u - single.u) <= 1e-8
    # every kernel evaluation of the solve is counted once, in its total
    assert [r.grid.num_points for r in runs] == [points, 32, points]
    assert res.flow.evaluations == len(evaluations)
    assert runs[-1].evaluations < res.flow.evaluations
    if points == 512:
        assert 3 * res.flow.evaluations <= single.evaluations


def test_every_continuation_rung_is_an_equilibrium_solve():
    # no rung converges by t = 0.05, so each warm rung, too, tries the coarse
    # stage; that ends t_max and is dropped, and the fine run is the plain
    # run from the previous rung's u
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    base = FlowConfig(eps=0.0, t_max=0.05)
    ladder = (2.0, 1.5, 1.0)
    rungs = continuation(sphere, initial_field("cosine", grid, 0.1), ladder, base)
    assert [r.eps for r in rungs] == list(ladder)
    u = initial_field("cosine", grid, 0.1)
    for eps, rung in zip(ladder, rungs):
        plain = flow_run(sphere, u, replace(base, eps=eps), grid=grid)
        assert rung.status == plain.status == "t_max"
        assert isinstance(rung.coarse, CoarseStage)
        assert (rung.coarse.status, rung.coarse.points) == ("t_max", 32)
        assert rung.u.tobytes() == plain.u.tobytes()
        assert rung.evaluations == 1 + rung.coarse.evaluations + plain.evaluations
        u = plain.u


def test_continuation_coarse_start_matches_the_single_grid_ladder():
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 128)
    u0 = initial_field("cosine", grid, 0.1)
    ladder = (2.0, 1.5, 1.0)
    base = FlowConfig(eps=0.0, t_max=200.0, step_tol=1e-8)
    rungs = continuation(sphere, u0, ladder)
    assert [r.eps for r in rungs] == list(ladder)
    assert rungs[0].coarse.status == "converged"
    assert all(r.coarse is None for r in rungs[1:])
    u = u0
    for eps, rung in zip(ladder, rungs):
        single = flow_run(sphere, u, replace(base, eps=eps), grid=grid)
        u = single.u
        y_eps = single.V_eps ** (-1.0 / (5.0 - 2.0 * eps)) * single.F2
        y2 = functional_V(grid, sphere, single.u, 0.0) ** (-1.0 / 5.0) * single.F2
        assert rung.status == single.status == "converged"
        assert rung.Y_eps == pytest.approx(y_eps, rel=1e-12, abs=0.0)
        assert rung.Y2_estimate == pytest.approx(y2, rel=1e-12, abs=0.0)
        assert np.ptp(rung.u - single.u) <= 1e-8


def _zigzag(stepper, u, v, s2):
    """A Newton step whose trial leaves Gamma_2^+: u'' of order 1e2 in
    alternating signs."""
    return np.where(np.arange(u.size) % 2 == 0, 0.5, -0.5)


def test_coarse_start_falls_back_to_the_plain_run(monkeypatch):
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    cfg = FlowConfig(eps=2.0, t_max=200.0)
    # 0.499 cos x is inside the cone on 64 points, outside it on 32; from
    # 0.1 cos x, neither run converges by t = 0.2, and the coarse flow phase
    # reaches sup |v| = 1e-1 only at t = 0.39; a Newton stage that takes no
    # step stalls where its flow phase ends, either because no iteration is
    # allowed (one evaluation, at its start) or because its first step leaves
    # the cone (one more evaluation, at the trial; no shorter step is tried)
    edge, mild = 0.499 * np.cos(grid.x), initial_field("cosine", grid, 0.1)

    for u0, config, patch, coarse_status, newton_evaluations in (
            (edge, cfg, {}, "cone_exit", 0),
            (mild, replace(cfg, t_max=0.2), {}, "t_max", 0),
            (mild, replace(cfg, tol_converge=0.0, t_max=0.2), {}, None, 0),
            (mild, cfg, {"_NEWTON_MAX_ITERATIONS": 0}, "stalled", 1),
            (mild, cfg, {"_newton_direction": _zigzag}, "stalled", 2)):
        plain = flow_run(sphere, u0, config, grid=grid)
        for name, value in patch.items():
            monkeypatch.setattr(flow_module, name, value)
        runs = _counted_flow_runs(monkeypatch)
        evaluations = _counted_evaluations(monkeypatch)
        res = eigen_solve(sphere, u0, config, grid=grid)
        monkeypatch.undo()
        assert (res.coarse and res.coarse.status) == coarse_status
        assert res.flow.status == plain.status != "cone_exit"
        assert res.u.tobytes() == plain.u.tobytes()
        assert res.flow.records == plain.records
        assert (res.flow.t, res.flow.steps, res.flow.F2) == (plain.t, plain.steps, plain.F2)
        # every kernel evaluation counts, the stalled Newton stage's too,
        # which are outside every run
        assert res.flow.evaluations == len(evaluations)
        assert res.flow.evaluations == sum(r.evaluations for r in runs) + newton_evaluations
        assert runs[-1].evaluations == plain.evaluations
        if coarse_status == "stalled":
            assert res.coarse.newton_iterations == 0
    # a start outside the cone on the requested grid ends there, as plain
    # flow_run does, although the coarse grid would take it
    u0 = initial_field("bump", grid, 0.1)
    plain = flow_run(sphere, u0, cfg, grid=grid)
    res = eigen_solve(sphere, u0, cfg, grid=grid)
    assert plain.status == res.flow.status == "cone_exit" and res.coarse is None
    assert res.flow.evaluations == plain.evaluations == 1
    assert flow_run(sphere, np.interp(sphere_latitude(5, 32).x, grid.x, u0),
                    replace(cfg, t_max=0.0)).status == "t_max"


@pytest.mark.parametrize("points", [128, 256, 512])
@pytest.mark.parametrize("n, init, amplitude, dt_safety", [
    (5, "cosine", 0.1, 0.8), (5, "bump", 0.05, 0.8), (9, "cosine", 0.1, 0.8),
    (9, "bump", 0.1, 0.8), (40, "cosine", 0.1, 0.8), (9, "bump", 0.1, 0.95),
], ids=["5-cosine-0.1", "5-bump-0.05", "9-cosine-0.1", "9-bump-0.1", "40-cosine-0.1",
        "9-bump-0.1-safety-0.95"])
def test_newton_finish_reaches_the_round_equilibrium(n, init, amplitude, dt_safety, points):
    # the discrete equilibrium on the round sphere is a constant, whose
    # eigenvalue is sigma_2 of the round Schouten tensor, n (n - 1) / 8, up
    # to the stencil's rounding on that constant (1.4e-13 relative on S^9
    # at 512 points); a bump of 0.1 leaves the cone of S^5 on these grids.
    # The coarse flow phase steps at its own loose tolerance and lands on no
    # record time, so a solve takes a few hundred evaluations (S^40 took
    # over 1,100 when it stepped at the caller's tolerance, and at dt_safety
    # 0.95 a rejected landing step was retried unchanged without end)
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, points)
    cfg = FlowConfig(eps=2.0, t_max=200.0, dt_safety=dt_safety)
    with _alarm(60):
        res = eigen_solve(sphere, initial_field(init, grid, amplitude), cfg, grid=grid)
    assert res.flow.status == res.coarse.status == "converged"
    assert res.coarse.newton_iterations > 0
    assert res.flow.evaluations <= 600
    assert np.ptp(res.u) <= 1e-12
    assert res.lambda1 == pytest.approx(n * (n - 1) / 8.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("points", [16, 24, 32])
@pytest.mark.parametrize("n", [5, 9, 12])
def test_small_grids_converge_on_their_own_grid_first(n, points):
    # on 32 points or fewer the coarse stage runs on the requested grid, so
    # a solve takes a few hundred evaluations; the flow alone from u0 takes
    # 1,655-3,093 on these grids
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, points)
    res = eigen_solve(sphere, initial_field("cosine", grid, 0.1), grid=grid)
    assert res.flow.status == res.coarse.status == "converged"
    assert res.coarse.points == points and res.flow.grid is grid
    assert res.flow.evaluations <= 600
    assert res.lambda1 == pytest.approx(n * (n - 1) / 8.0, rel=1e-12, abs=0.0)


def test_fallback_to_u0_converges_on_s12(monkeypatch):
    # without Newton the solve falls back to the flow from u0 on 128 points,
    # which converges at the default step_tol; at step_tol 1e-8 it plateaus
    # for about 270,000 evaluations
    monkeypatch.setattr(flow_module, "_newton_direction", lambda *args: None)
    sphere = RoundSphere(12)
    grid = sphere_latitude(12, 128)
    with _alarm(60):
        res = eigen_solve(sphere, initial_field("cosine", grid, 0.1), grid=grid)
    assert res.coarse.status == "stalled" and res.coarse.newton_iterations == 0
    assert res.flow.status == "converged"
    assert res.flow.evaluations <= 50_000


# random four-mode starts from a near-edge sweep, at 0.99 of the largest
# amplitude inside Gamma_2^+ on both the 128- and the 32-point grid
@pytest.mark.parametrize("n, modes, eps", [
    (15, (-0.5538, 0.1685, 0.3801, -0.2878), 2.0),
    (20, (0.2942, 1.3721, -0.4691, 0.3591), 2.0),
    (15, (-0.1092, -1.3081, 0.934, -0.0511), 0.25),
    (20, (0.2605, 1.5924, 0.396, -1.2195), 1.0),
])
def test_newton_finishes_starts_near_the_cone_edge(n, modes, eps):
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, 128)

    def shape(x):
        return sum(c * np.cos(k * x) for k, c in enumerate(modes, 1))

    def inside(amplitude):
        fields = (schouten_fields(g, sphere, amplitude * shape(g.x))
                  for g in (grid, sphere_latitude(n, 32)))
        return all(min(f.sigma1.min(), f.sigma2.min()) > 0.0 for f in fields)

    lo, hi = 0.0, 1.0
    assert inside(lo) and not inside(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    u0 = 0.99 * lo * shape(grid.x)
    if eps == 2.0:
        res = eigen_solve(sphere, u0, grid=grid)
        status, coarse = res.flow.status, res.coarse
    else:
        rung = continuation(sphere, u0, (eps,))[0]
        status, coarse = rung.status, rung.coarse
    assert status == coarse.status == "converged"
    assert coarse.newton_iterations > 0


def test_coarse_start_costs_less_than_the_single_grid_run_on_s9():
    sphere = RoundSphere(9)
    grid = sphere_latitude(9, 256)
    u0 = initial_field("bump", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=200.0, step_tol=1e-8)
    res = eigen_solve(sphere, u0, cfg, grid=grid)
    assert res.flow.status == "converged"
    # the single-grid flow_run converges at t = 16.9 after about 153,000
    # evaluations; up to the record time 0.5 it takes the steps of a run
    # with t_max = 0.5, which already cost more than the whole solve
    prefix = flow_run(sphere, u0, replace(cfg, t_max=0.5), grid=grid)
    assert prefix.status == "t_max"
    assert res.flow.evaluations < prefix.evaluations


def test_newton_iterations_raise_no_floating_point_error(monkeypatch):
    # the benchmark's relax starts: eigen solves on S^5 and S^9, and the
    # first rung of the continuation ladder
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    real = flow_module._newton_finish
    iterations = []

    def strict(*args):
        with np.errstate(all="raise"):
            out = real(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(flow_module, "_newton_finish", strict)
    for seed in (11001, 20201):
        relax = workloads.Relax(seed)
        for sphere, _, u0 in relax.starts.values():
            assert eigen_solve(sphere, u0).flow.status == "converged"
        sphere, _, u0 = relax.ladder
        assert continuation(sphere, u0, relax.LADDER[:1])[0].status == "converged"
    assert len(iterations) == 12 and all(iterations)


def test_timeout_bounds_the_whole_equilibrium_solve():
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 512)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=200.0, timeout=1e-3)
    with _alarm(20):
        res = eigen_solve(sphere, u0, cfg, grid=grid)
        rungs = continuation(sphere, u0, (2.0, 1.5), replace(cfg, eps=0.0))
    assert res.flow.status == "timeout" and res.flow.config.timeout == 1e-3
    assert res.coarse.status == "timeout"
    assert [(r.eps, r.status) for r in rungs] == [(2.0, "timeout")]


# ---------------------------------------------------------------------------
# Newton's colored Jacobian against the dense forward-difference one

def _dense_jacobian(stepper, u, v):
    """dv/du by forward differences of the kernel, one evaluation per node."""
    jac = np.empty((u.size, u.size))
    for j in range(u.size):
        du = flow_module._FD_STEP * max(1.0, abs(u[j]))
        shifted = u.copy()
        shifted[j] += du
        jac[:, j] = (stepper.velocity(shifted, flow_module._STAGE)[0] - v) / du
    return jac


def _off_equilibrium_states(grid):
    x = grid.x
    if grid.right_even:
        return (0.1 * np.cos(x) + 0.03 * np.cos(3.0 * x), initial_field("bump", grid),
                -0.2 * np.cos(x))
    return (0.5 * x * x + 0.005 * np.cos(2.0 * np.pi * x / x[-1]), 0.3 * x * x,
            0.5 * x * x - 0.02 * x ** 4)


@pytest.mark.parametrize("eps", [2.0, 0.5])
@pytest.mark.parametrize("background, points, colors", [
    (RoundSphere(5), 32, 5), (RoundSphere(9), 24, 5), (RoundSphere(12), 16, 5),
    (FlatRadialBall(9, 1.0), 24, 6),
], ids=["S5", "S9", "S12", "flat_ball"])
def test_colored_jacobian_is_the_dense_one_up_to_a_constant_row(background, points,
                                                                colors, eps, monkeypatch):
    # the colored Jacobian leaves out the s_eps term 1 (x) grad s_eps, which
    # the Newton matrix's border absorbs: the dense one minus it has equal rows.
    # A rim closure reads 6 nodes, so the ball's grid takes 6 colors
    grid = background.make_grid(points)
    stepper = flow_module._Stepper(background, grid, eps, 0.8)
    assert stepper.coloring[1] == colors
    evaluations = _counted_evaluations(monkeypatch)
    for u in _off_equilibrium_states(grid):
        v, slots = stepper.velocity(u, flow_module._STEP)
        assert slots[flow_module._S_SUPV] > 1e-2
        dense = _dense_jacobian(stepper, u, v)
        s2 = stepper.velocity(u, flow_module._JACOBIAN)
        del evaluations[:]
        colored = flow_module._colored_jacobian(stepper, u, s2)
        assert len(evaluations) == colors
        gap = dense - colored
        assert np.abs(gap - gap[0]).max() <= 1e-4 * np.abs(dense).max()


@pytest.mark.parametrize("n", [5, 9])
def test_newton_takes_colors_plus_one_evaluations_per_iteration(n, monkeypatch):
    # per iteration: the Jacobian's colored differences, which read the
    # sigma_2 row of the state's own evaluation, and the trial; one more
    # evaluation starts the stage, and its last Jacobian's trial is rejected.
    # The dense Jacobian took 32 evaluations on these 32 points
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, 128)
    runs = _counted_flow_runs(monkeypatch)
    res = eigen_solve(sphere, initial_field("cosine", grid, 0.1), grid=grid)
    coarse = res.coarse
    assert coarse.status == "converged" and coarse.newton_iterations > 0
    colors = runs[1].grid.stencils.footprint()[1]
    assert colors == 5
    newton = coarse.evaluations - runs[1].evaluations
    assert newton == 1 + (colors + 1) * (coarse.newton_iterations + 1)


# ---------------------------------------------------------------------------
# a grid meets its background: the pair is checked once

@pytest.mark.parametrize("background, grid", [
    (RoundSphere(5), sphere_latitude(9, 64)),
    (RoundSphere(5), ball_radius(5, 64, math.pi)),
    (FlatRadialBall(5, 1.0), ball_radius(5, 64, 2.0)),
], ids=["dimension", "coordinate", "ball_radius"])
def test_a_grid_of_another_background_is_rejected(background, grid):
    # S^5's solve on S^9's grid used to converge with S^9's density and
    # S^5's Schouten tables
    u0 = 0.1 * np.cos(grid.x)
    with pytest.raises(ValueError, match="is not a grid of"):
        flow_run(background, u0, FlowConfig(eps=2.0, t_max=0.05), grid=grid)
    with pytest.raises(ValueError, match="is not a grid of"):
        eigen_solve(background, u0, FlowConfig(eps=2.0, t_max=200.0), grid=grid)
    with pytest.raises(ValueError, match="is not a grid of"):
        schouten_fields(grid, background, u0)
    with pytest.raises(ValueError, match="is not a grid of"):
        functional_V(grid, background, u0, 2.0)


def test_the_grid_check_runs_once_per_grid_and_background(monkeypatch):
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    calls = []
    real = RoundSphere.make_grid

    def counting(self, num_points):
        calls.append(num_points)
        return real(self, num_points)

    monkeypatch.setattr(RoundSphere, "make_grid", counting)
    u0 = initial_field("cosine", grid, 0.1)
    functional_V(grid, sphere, u0, 2.0)
    schouten_fields(grid, sphere, u0)
    flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=0.05), grid=grid)
    assert calls == [64]
    # the coarse grid is made once, and checked once
    eigen_solve(sphere, u0, grid=grid)
    eigen_solve(sphere, u0, grid=grid)
    assert calls == [64, 32, 32]


# ---------------------------------------------------------------------------
# failure paths, driven through the kernel's outcome

def _accepted_steps(monkeypatch):
    """Record (t, u) after every step _Stepper.take accepts."""
    accepted = []
    real = flow_module._Stepper.take

    def recording(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        accepted.append((out[3], out[0]))
        return out

    monkeypatch.setattr(flow_module._Stepper, "take", recording)
    return accepted


def _cone_exit_at_call(monkeypatch, k):
    """Make the k-th kernel evaluation from now on report a cone exit."""
    calls = []
    real = flow_module._Stepper.velocity

    def velocity(self, *args, **kwargs):
        calls.append(1)
        ev = real(self, *args, **kwargs)
        return None if len(calls) == k else ev

    monkeypatch.setattr(flow_module._Stepper, "velocity", velocity)


def test_a_stage_outside_the_cone_ends_the_run_at_the_last_accepted_step(monkeypatch):
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=1.0)
    accepted = _accepted_steps(monkeypatch)
    _cone_exit_at_call(monkeypatch, 12)
    res = flow_run(sphere, u0, cfg, grid=grid)
    assert res.status == "cone_exit" and res.steps == len(accepted) > 0
    t, u = accepted[-1]
    assert res.t == t > 0.0 and res.u.tobytes() == u.tobytes()
    assert math.isnan(res.equilibrium_residual)
    assert math.isfinite(res.F2) and res.records[-1].t < res.t


def test_a_rung_that_leaves_the_cone_ends_the_ladder(monkeypatch):
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    base = FlowConfig(eps=0.0, t_max=0.05, tol_converge=0.0)
    first = continuation(sphere, u0, (2.0,), base)[0]
    accepted = _accepted_steps(monkeypatch)
    _cone_exit_at_call(monkeypatch, first.evaluations + 12)
    rungs = continuation(sphere, u0, (2.0, 1.5, 1.0), base)
    assert [(r.eps, r.status) for r in rungs] == [(2.0, "t_max"), (1.5, "cone_exit")]
    assert rungs[0].u.tobytes() == first.u.tobytes()
    last = rungs[1]
    assert last.u.tobytes() == accepted[-1][1].tobytes()
    assert last.u.tobytes() != first.u.tobytes()
    assert all(math.isnan(getattr(last, name))
               for name in ("Y_eps", "Y2_estimate", "F2", "V_eps", "r_eps"))
    assert last.coarse is None and last.evaluations == 12


def test_blow_up_ends_the_run_at_the_last_accepted_step(monkeypatch):
    # the floor is read between steps: raising it above every u after the
    # third accepted step ends the run there
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    accepted = _accepted_steps(monkeypatch)
    real = flow_module._Stepper.take

    def take(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        if len(accepted) == 3:
            monkeypatch.setattr(flow_module, "BLOWUP_FLOOR", 1.0)
        return out

    monkeypatch.setattr(flow_module._Stepper, "take", take)
    res = flow_run(sphere, u0, FlowConfig(eps=2.0, t_max=1.0), grid=grid)
    assert res.status == "blow_up_suspected" and res.steps == 3
    t, u = accepted[-1]
    assert res.t == t > 0.0 and res.u.tobytes() == u.tobytes()
    assert res.records[-1].t == res.t
    assert math.isfinite(res.equilibrium_residual)


def _coarse_newton_start():
    """A 32-point stepper on S^5 and the coarse flow phase's end state."""
    sphere = RoundSphere(5)
    small = sphere_latitude(5, 32)
    u = flow_run(sphere, initial_field("cosine", small, 0.1),
                 FlowConfig(eps=2.0, t_max=200.0, tol_converge=flow_module._NEWTON_SWITCH,
                            step_tol=flow_module._COARSE_STEP_TOL, record_dt=200.0),
                 grid=small).u
    return flow_module._Stepper(sphere, small, 2.0, 0.8), u


def _break_difference(monkeypatch):
    # every _JACOBIAN evaluation is one of the Jacobian's colored differences
    real = flow_module._Stepper.velocity

    def velocity(self, u, level, out=None):
        return None if level == flow_module._JACOBIAN else real(self, u, level, out)

    monkeypatch.setattr(flow_module._Stepper, "velocity", velocity)


def _singular(monkeypatch):
    def solve(a, b):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("breaks", [_break_difference, _singular],
                         ids=["difference_outside_the_cone", "singular_solve"])
def test_newton_without_a_direction_falls_back_to_u0(breaks, monkeypatch):
    stepper, u = _coarse_newton_start()
    v, _ = stepper.velocity(u, flow_module._STEP)
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 64)
    u0 = initial_field("cosine", grid, 0.1)
    cfg = FlowConfig(eps=2.0, t_max=200.0)
    plain = flow_run(sphere, u0, cfg, grid=grid)
    with monkeypatch.context() as patch:
        breaks(patch)
        direction = flow_module._newton_direction(stepper, u, v, stepper.sigma2)
    assert direction is None
    with monkeypatch.context() as patch:
        breaks(patch)
        fresh = flow_module._Stepper(sphere, sphere_latitude(5, 32), 2.0, 0.8)
        assert flow_module._newton_finish(fresh, u, 1e-8, None)[1:] == ("stalled", 0)
    with monkeypatch.context() as patch:
        breaks(patch)
        res = eigen_solve(sphere, u0, cfg, grid=grid)
    assert (res.coarse.status, res.coarse.newton_iterations) == ("stalled", 0)
    assert res.flow.status == plain.status == "converged"
    assert res.u.tobytes() == plain.u.tobytes()


def test_newton_past_its_deadline_times_out_at_the_last_accepted_step(monkeypatch):
    # a fake clock that ticks once per reading: the loop reads 0 (< 0.5, one
    # iteration), then 1 (past the deadline), and the status check 2
    stepper, u = _coarse_newton_start()
    v, _ = stepper.velocity(u, flow_module._STEP)
    one_step = u + flow_module._newton_direction(stepper, u, v, stepper.sigma2)
    ticks = iter(range(100))
    monkeypatch.setattr(flow_module, "time", type("Clock", (), {
        "monotonic": staticmethod(lambda: float(next(ticks)))}))
    u1, status, iterations = flow_module._newton_finish(stepper, u, 1e-8, 0.5)
    assert (status, iterations) == ("timeout", 1)
    assert u1.tobytes() == one_step.tobytes()
    assert stepper.velocity(u1, flow_module._STEP)[1][flow_module._S_SUPV] > 1e-8


# ---------------------------------------------------------------------------
# Newton from the hand-over at sup |v| = 1e-1

@pytest.mark.parametrize("points", [32, 64])
@pytest.mark.parametrize("n", [5, 7])
def test_newton_from_the_hand_over_converges_where_sufficient_decrease_stalled(n, points):
    # handed over at sup |v| = 1e-1, full Newton steps that had to cut sup |v|
    # to 3/4 stalled at their first step on these starts (on every grid from
    # 16 to 256 points), and each solve fell back to the flow from u0, at
    # 34,248-55,953 evaluations on these grids; steps accepted at any
    # decrease converge in 192-253, where a hand-over at 1e-2 took 680-725
    sphere = RoundSphere(n)
    grid = sphere_latitude(n, points)
    rung = continuation(sphere, initial_field("cosine", grid, 0.3), (0.25,))[0]
    assert rung.status == rung.coarse.status == "converged"
    assert rung.coarse.newton_iterations > 0
    assert rung.evaluations <= 400


def test_the_traced_probe_start_takes_coarse_flow_steps(monkeypatch):
    # the traced benchmark run divides by the time its coarse flow_run
    # simulates (perfbench/tracing.py:195), so this start, which begins at
    # sup |v| = 0.268, must still take flow steps before the hand-over at
    # 1e-1; until that division is guarded, ROADMAP item 9, step 3 (no
    # coarse flow phase) stays blocked
    sphere = RoundSphere(5)
    grid = sphere_latitude(5, 128)
    runs = _counted_flow_runs(monkeypatch)
    res = eigen_solve(sphere, initial_field("cosine", grid, 0.1))
    assert res.coarse.status == "converged"
    coarse = runs[1]
    assert coarse.grid.num_points == 32
    assert coarse.t > 0.0 and coarse.steps > 0
