"""Command-line interface tests, run in-process through parse_and_dispatch."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigma2flow
from sigma2flow.cli import _build_parser, parse_and_dispatch
from sigma2flow.flow import MONITOR_COLUMNS


def run_cli(capsys, argv):
    rc = parse_and_dispatch(argv)
    return rc, capsys.readouterr()


def test_verify_ok(capsys, tmp_path):
    path = tmp_path / "verify.json"
    rc, _ = run_cli(capsys, ["verify", "--trials", "100", "--json", str(path)])
    assert rc == 0
    d = json.loads(path.read_text())
    assert d["command"] == "verify"
    assert d["status"] == "ok"
    assert d["sigma2_consistency"] < 1e-10
    assert d["divergence_residual"] < 1e-3
    assert d["refinement_gain"] > 3.0
    assert d["round_sigma2"] == 2.5
    assert d["Y2_sphere"] == pytest.approx(39.003151786888736, rel=1e-12)
    assert "version" in d and "config" in d
    assert "backend" not in d  # one numpy path; the key said nothing


def test_verify_runs_the_eigen_route_once_per_trial(capsys, monkeypatch):
    # the eigen route (symfun.sigma_k) is compared with the minors and the
    # trace formula
    import sigma2flow.symfun as symfun_module

    calls = []
    real = symfun_module.jacobi_eigenvalues

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(symfun_module, "jacobi_eigenvalues", counting)
    rc, cap = run_cli(capsys, ["verify", "--trials", "50"])
    assert rc == 0
    assert len(calls) == 50
    assert 0.0 < json.loads(cap.out)["sigma2_consistency"] < 1e-10


def test_flow_smoke(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    rc, cap = run_cli(capsys, [
        "flow", "--grid-points", "64", "--t-max", "0.5", "--tol-converge", "0",
        "--record-dt", "0.1", "--csv", str(csv)])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["command"] == "flow"
    assert d["status"] == "t_max"
    assert d["t"] == pytest.approx(0.5, abs=1e-9)
    assert d["max_V_drift"] < 1e-9
    assert d["max_step_F2_increase"] <= 1e-10 * abs(d["F2"])
    assert "wall_time" not in d
    lines = csv.read_text().splitlines()
    assert lines[0] == ",".join(MONITOR_COLUMNS)
    assert len(lines) >= 5


def test_flow_reruns_are_byte_identical(capsys, tmp_path):
    outputs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        rc, _ = run_cli(capsys, [
            "flow", "--grid-points", "64", "--t-max", "0.3", "--tol-converge", "0",
            "--record-dt", "0.1", "--csv", str(csv), "--json", str(js)])
        assert rc == 0
        outputs.append((csv.read_bytes(), js.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eigen(capsys):
    rc, cap = run_cli(capsys, ["eigen", "--grid-points", "64"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["status"] == "converged"
    assert d["lambda1"] == pytest.approx(2.5, abs=1e-7)


def test_runs_report_their_work_and_step_tolerance(capsys):
    # every run steps at the trajectory tolerance; only the coarse stage of
    # an equilibrium solve, which the summary does not report, has its own
    rc, cap = run_cli(capsys, ["eigen", "--grid-points", "48"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["step_tol"] == 5e-12
    assert d["evaluations"] >= 2 * d["steps"] + 1
    assert 0.0 <= d["max_V_drift"] < 1e-6
    rc, cap = run_cli(capsys, ["flow", "--grid-points", "48", "--t-max", "0.1",
                               "--tol-converge", "0"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["step_tol"] == 5e-12
    # every step attempt, accepted or rejected, takes at least two stages
    assert d["evaluations"] >= 2 * (d["steps"] + d["rejected_steps"]) + 1
    rc, cap = run_cli(capsys, ["continuation", "--ladder", "2.0,1.5",
                               "--grid-points", "48"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["step_tol"] == 5e-12
    assert all(r["evaluations"] > 0 for r in d["rungs"])


def test_continuation(capsys):
    rc, cap = run_cli(capsys, ["continuation", "--ladder", "2.0,1.5",
                               "--grid-points", "64"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["status"] == "converged"
    assert [r["eps"] for r in d["rungs"]] == [2.0, 1.5]
    for rung in d["rungs"]:
        assert rung["status"] == "converged"
        assert rung["Y2_estimate"] == pytest.approx(39.003151786888736, rel=1e-3)
    assert d["rungs"][0]["Y_eps"] == pytest.approx(2.5, abs=1e-7)
    # a warm rung starts at its equilibrium, a constant: no coarse stage
    assert [(r["coarse_points"], r["coarse_evaluations"], r["coarse_newton_iterations"])
            for r in d["rungs"][1:]] == [(0, 0, 0)]


def test_continuation_reports_each_rungs_coarse_stage(capsys):
    # no rung converges by t = 0.05, so each warm rung runs its own coarse
    # stage, which ends t_max with no Newton step; the top-level keys stay
    # the first rung's
    rc, cap = run_cli(capsys, ["continuation", "--grid-points", "64", "--t-max", "0.05",
                               "--ladder", "2,1.5,1"])
    assert rc == 0, cap.err
    d = json.loads(cap.out)
    keys = ("coarse_points", "coarse_evaluations", "coarse_newton_iterations")
    assert [r["status"] for r in d["rungs"]] == ["t_max"] * 3
    assert tuple(d[k] for k in keys) == tuple(d["rungs"][0][k] for k in keys)
    for rung in d["rungs"]:
        assert rung["coarse_points"] == 32 and rung["coarse_newton_iterations"] == 0
        assert 0 < rung["coarse_evaluations"] < rung["evaluations"]


def test_continuation_at_half_the_dimension_reports_a_null_y_eps(capsys):
    # at eps = n/2 no power of V_eps makes F2 scale-invariant
    rc, cap = run_cli(capsys, ["continuation", "--ladder", "2.5", "--n", "5",
                               "--grid-points", "32"])
    assert rc == 0
    d = json.loads(cap.out)
    [rung] = d["rungs"]
    assert d["status"] == rung["status"] == "converged"
    assert rung["Y_eps"] is None
    assert rung["Y2_estimate"] == pytest.approx(39.003151786888736, rel=1e-3)


def test_continuation_where_the_volume_power_leaves_the_float_range(capsys):
    # near 2 eps = n the volume's power (n - 4)/(n - 2 eps) is about 8e7, so
    # V_eps to it leaves the float range: a null Y_eps, not a traceback
    rc, cap = run_cli(capsys, ["continuation", "--ladder", "9.9999999", "--n", "20",
                               "--grid-points", "32", "--t-max", "1"])
    assert rc == 0
    d = _strict_json(cap.out)
    [rung] = d["rungs"]
    assert d["status"] == rung["status"] == "converged"
    assert rung["Y_eps"] is None
    assert math.isfinite(rung["Y2_estimate"])


def test_construct_defaults(capsys):
    rc, cap = run_cli(capsys, ["construct"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["status"] == "ok"
    assert d["eps_margin"] == pytest.approx(0.08)
    assert d["delta"] == pytest.approx(0.06309573444801933, rel=1e-12)
    assert d["delta1"] == pytest.approx(0.17770797337111816, rel=1e-9)
    assert d["b0"] == pytest.approx(1.0495454590284963, rel=1e-9)
    assert d["b1"] == pytest.approx(0.5760522185134601, rel=1e-9)
    assert d["margin"] == pytest.approx(-6.538123998467427e-05, rel=1e-4)
    assert d["margin_positive"] is False
    assert d["beta_in_proof_range"] is False  # beta = 0.3 > (n-4)/(2n)
    assert d["beta_warning"] is True
    names = [r["name"] for r in d["regions"]]
    assert names[0] == "bubble" and names[-1] == "outer"
    assert all({"energy", "volume", "min_sigma1", "min_sigma2", "in_cone"}
               <= set(r) for r in d["regions"])


def test_construct_failure_returns_numeric_error(capsys):
    # the second case has lam > 1, so delta = lam**beta > 1
    for argv in (["--gamma", "1.99"], ["--lambda", "5", "--beta", "0.45"]):
        rc, cap = run_cli(capsys, ["construct", *argv])
        assert rc == 3
        d = json.loads(cap.out)
        assert d["status"] == "error"
        assert d["error"].startswith("[glue]")


def test_construct_empty_tube_returns_numeric_error(capsys):
    rc, cap = run_cli(capsys, ["construct", "--lambda", "8.70664478545601e-4",
                               "--beta", "0.2544625557993091", "--gamma", "1.05"])
    assert rc == 3
    d = json.loads(cap.out)
    assert d["status"] == "error"
    assert d["error"].startswith("[assemble] the tube region is empty")


def test_sweep(capsys):
    rc, cap = run_cli(capsys, ["sweep", "--lambdas", "1e-3,1e-4"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["status"] == "ok"
    assert d["all_margins_positive"] is True
    assert all(m > 0 for m in d["margins"])
    assert d["K2_rel_dev"] < 0.1


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_inadmissible_start_exits_numeric(capsys):
    for argv in (["flow", "--grid-points", "64", "--amplitude", "3.0", "--t-max", "0.5"],
                 ["flow", "--amplitude", "3"]):
        rc, cap = run_cli(capsys, argv)
        assert rc == 3
        d = _strict_json(cap.out)
        assert d["status"] == "cone_exit"
        assert d["F2"] is None and d["equilibrium_residual"] is None


def test_usage_errors(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    cases = [
        ["flow", "--n", "3"],
        ["flow", "--init", "sawtooth"],
        ["flow", "--grid-points", "8"],
        ["verify", "--n", "4"],
        ["sweep", "--deltaR", "0.0"],
        ["construct", "--radii", "1,2,3"],
        ["construct", "--beta", "0.6"],
        # out-of-range construction inputs are the library's ValueErrors
        ["construct", "--gamma", "3"],
        ["sweep", "--gamma", "3"],
        ["construct", "--radii", "6,5,4,3,2,1"],
        ["nonsense"],
        # continuation writes no trace, so it takes no --csv
        ["continuation", "--grid-points", "32", "--t-max", "1", "--csv", str(trace)],
        # a negative timeout, and verify with no trial to compare
        ["flow", "--timeout=-1"],
        ["verify", "--trials", "0"],
        ["verify", "--trials=-1"],
    ]
    for argv in cases:
        rc, cap = run_cli(capsys, argv)
        assert rc == 2, argv
    assert not trace.exists()
    # a short layout is reported as one, not as a patch radius below lam**beta
    for command in ("construct", "sweep"):
        rc, cap = run_cli(capsys, [command, "--radii", "0.01"])
        assert rc == 2 and "radii must be six increasing values" in cap.err, cap.err


def test_flow_settings_are_usage_errors(capsys):
    # FlowConfig checks the settings; each case ran (or failed on a math
    # domain error) before it did
    for flag, value in (("--dt-safety", "-1"), ("--t-max", "nan"), ("--t-max", "-1"),
                        ("--record-dt", "inf")):
        rc, cap = run_cli(capsys, ["flow", "--grid-points", "32", "--t-max", "0.1",
                                   "--tol-converge", "1e-2", flag, value])
        assert rc == 2, (flag, value)
        assert flag[2:].replace("-", "_") in cap.err


def test_flow_rejects_a_dt_safety_of_one_or_more():
    # from dt_safety 1 on the step controller rejects every step, so with no
    # --timeout the run never ended; the subprocess timeout turns that into
    # a failure
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sigma2flow.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    for value in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "sigma2flow", "flow", "--grid-points", "32",
             "--t-max", "1", "--dt-safety", value],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, (value, proc.stderr)
        assert proc.stdout == ""
        assert "dt_safety must be below 1" in proc.stderr


def test_negative_values_in_exponent_notation(capsys):
    # argparse read "-1e-2" after an option as another option
    rc, cap = run_cli(capsys, ["sweep", "--deltaR", "-1e-2"])
    assert rc == 0, cap.err
    rc_eq, cap_eq = run_cli(capsys, ["sweep", "--deltaR=-1e-2"])
    assert rc_eq == 0
    assert cap.out == cap_eq.out
    assert json.loads(cap.out)["config"]["delta_r"] == -0.01
    # every subcommand parses such a value
    parser = _build_parser()
    for argv, dest in ((["flow", "--eps"], "eps"), (["eigen", "--amplitude"], "amplitude"),
                       (["continuation", "--t-max"], "t_max"),
                       (["verify", "--amplitude"], "amplitude"),
                       (["construct", "--deltaR"], "delta_r"),
                       (["sweep", "--beta"], "beta")):
        for value in ("-1e-2", "-2.5E+3", "-.5e1", "-3."):
            assert getattr(parser.parse_args([*argv, value]), dest) == float(value)


def test_construct_rejects_a_scale_whose_square_underflows(capsys):
    rc, cap = run_cli(capsys, ["construct", "--lambda", "1e-300"])
    assert rc == 2
    assert "lam^2 must be a normal float" in cap.err


def test_sweep_rejects_repeated_scales(capsys):
    rc, cap = run_cli(capsys, ["sweep", "--lambdas", "1e-3,1e-3,1e-3"])
    assert rc == 2
    assert "distinct bubble scales" in cap.err


def test_construct_with_non_finite_energy_is_an_error(capsys):
    # at n = 40 the outer quadrature overflows and F2 is not finite
    with pytest.warns(RuntimeWarning):
        rc, cap = run_cli(capsys, ["construct", "--n", "40"])
    assert rc == 3
    d = _strict_json(cap.out)
    assert d["status"] == "error"
    assert d["margin"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["construct", "--n", "9", "--lambda", "1e-60", "--beta", "0.26", "--gamma", "1.05"],
    ["sweep", "--lambdas", "1e-60,1e-61"],
    ["construct", "--n", "9", "--lambda", "1e-40", "--beta", "0.26", "--gamma", "1.05"],
    ["sweep", "--lambdas", "1e-40,1e-41", "--beta", "0.26"],
])
def test_energy_sums_past_the_float_range_are_numeric_failures(capsys, argv):
    # region terms of both signs overflow at lam 1e-60: the sums are not
    # finite, which is a numeric failure (exit 3), not a usage error.  At
    # lam 1e-40 only the volume overflows, and F2 / inf**((n-4)/n), a
    # finite 0, must not pass for an energy: no margin is reported
    rc, cap = run_cli(capsys, argv)
    assert rc == 3, cap.err
    d = _strict_json(cap.out)
    assert d["status"] == "error"
    if argv[0] == "construct":
        assert d["F2_tilde"] is None and d["margin"] is None
        assert d["lambda2_slope"] is None
        assert d["margin_positive"] is False
    else:
        assert d["F2_tilde"] == [None, None] and d["F2_tilde_flat"] == [None, None]
        assert d["margins"] == [None, None] and d["flat_margins"] == [None, None]
        assert d["K2_fit"] is None and d["K2_rel_dev"] is None
        assert d["all_margins_positive"] is False


def test_construct_at_large_dimension_has_a_finite_target(capsys):
    # the curvature-response target stays finite at large n
    rc, cap = run_cli(capsys, ["construct", "--n", "34"])
    assert rc == 0
    d = _strict_json(cap.out)
    assert d["status"] == "ok"
    assert d["lambda2_target"] is not None and d["lambda2_target"] < 0.0


# Flow settings as the CLI takes them: ordinary values, and per setting the
# edge values it parses too.  A huge t_max and an unbounded timeout are left
# out, so every run stops within a t_max of 1 or a timeout of 0.2 s.
_ORDINARY = {
    "eps": ("0.5", "2"),
    "t-max": ("0.02", "0.1", "1"),
    "dt-safety": ("0.4", "0.8"),
    "tol-converge": ("1e-8", "1e-2"),
    "record-dt": ("0.01", "1"),
    "amplitude": ("0.05", "0.1", "3"),
    "grid-points": ("16", "32", "64"),
    "timeout": ("0.2",),
}
_EDGE = ("nan", "inf", "-inf", "0", "-1", "1e-300")
_EDGES = {
    "eps": _EDGE + ("1e300",),
    "t-max": _EDGE,
    "dt-safety": _EDGE + ("2", "1e300"),
    "tol-converge": _EDGE + ("1e300",),
    "record-dt": _EDGE + ("1e-7", "1e300"),
    "amplitude": _EDGE + ("1e300",),
    "grid-points": ("nan", "-1", "0", "8"),
    "timeout": _EDGE,
}
_FLOW_STATUSES = ("converged", "t_max", "max_steps", "timeout",
                  "cone_exit", "blow_up_suspected", "non_finite")


@st.composite
def _flow_argv(draw):
    cfg = {key: draw(st.sampled_from(values)) for key, values in _ORDINARY.items()}
    for key in draw(st.lists(st.sampled_from(sorted(_EDGES)), max_size=3, unique=True)):
        cfg[key] = draw(st.sampled_from(_EDGES[key]))
    return ["flow", *(f"--{key}={value}" for key, value in cfg.items())]


# the huge and non-finite starts overflow on their way to a non_finite status
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=60)
@given(argv=_flow_argv())
def test_flow_settings_end_with_a_true_status(argv):
    # each draw is a usage error, or a run whose strict JSON summary has a
    # status that matches the exit code
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = parse_and_dispatch(argv)
    if rc == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("sigma2 flow: ", "usage: ")), err.getvalue()
        return
    assert rc in (0, 3), (rc, err.getvalue())
    d = _strict_json(out.getvalue())
    assert d["status"] in _FLOW_STATUSES
    assert (rc == 3) == (d["status"] in ("cone_exit", "blow_up_suspected", "non_finite"))
    if rc == 3:
        assert d["equilibrium_residual"] is None, d


@pytest.mark.parametrize("setting", ["--amplitude=1e300", "--amplitude=-1e300",
                                     "--amplitude=inf", "--eps=1e300", "--eps=-1e300"])
def test_extreme_flow_settings_end_non_finite_under_strict_fp(capsys, setting):
    # before the first kernel evaluation, a start whose exponentials would
    # overflow ends the run; under raising modes it was a FloatingPointError
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rc, cap = run_cli(capsys, ["flow", "--grid-points", "64", setting])
    assert rc == 3, cap.err
    d = _strict_json(cap.out)
    assert d["status"] == "non_finite"
    assert (d["t"], d["steps"], d["equilibrium_residual"]) == (0.0, 0, None)


@pytest.mark.parametrize("command,n", [
    *((command, 400) for command in
      ("flow", "eigen", "continuation", "verify", "construct", "sweep")),
    ("construct", 331), ("construct", 342), ("sweep", 342),
    ("verify", 331), ("verify", 335), ("verify", 342)])
def test_dimensions_beyond_float_range_are_usage_errors(capsys, command, n):
    # |S^m| overflows Gamma from m = 343 on, and the lam^2 target leaves the
    # float range from n = 331 on; both were tracebacks.  verify reported the
    # drifting Y2 of a subnormal B there (4e-9 off at n = 335; B = Y2 = 0
    # from n = 341) with status ok
    rc, cap = run_cli(capsys, [command, "--n", str(n)])
    assert rc == 2
    assert cap.out == ""
    assert cap.err.startswith(f"sigma2 {command}: ") and "float" in cap.err


def test_verify_runs_at_the_largest_dimension(capsys):
    # n = 330 is the last dimension whose sphere constants verify reports
    rc, cap = run_cli(capsys, ["verify", "--n", "330", "--trials", "5"])
    assert rc == 0
    d = _strict_json(cap.out)
    assert d["status"] == "ok"
    assert 0.0 < d["B"] < 1e-311 and d["Y2_sphere"] == pytest.approx(36.5061828850079)


def test_commands_end_with_a_true_status_under_strict_fp(capsys):
    # under raising error modes the benchmark's commands end as they do by
    # default, and construct at n = 40, whose outer quadrature overflows,
    # ends as a numeric error with a strict JSON summary, not a traceback
    cases = [
        (["verify", "--trials", "1000"], 0, "ok"),
        (["construct"], 0, "ok"),
        (["sweep"], 0, "ok"),
        (["flow", "--grid-points", "96", "--t-max", "1.0", "--tol-converge", "0",
          "--record-dt", "0.05"], 0, "t_max"),
        (["eigen", "--n", "9", "--grid-points", "48"], 0, "converged"),
        (["continuation", "--grid-points", "48", "--ladder", "2,1"], 0, "converged"),
        (["flow", "--amplitude", "3"], 3, "cone_exit"),
        (["construct", "--n", "40"], 3, "error"),
    ]
    for argv, code, status in cases:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc, cap = run_cli(capsys, argv)
        assert rc == code, (argv, cap.err)
        d = _strict_json(cap.out)
        assert d["status"] == status, argv
        # one summary shape: a run's carries its config, an error's the
        # message and the energy keys a non-finite sum reports, null
        if status == "error":
            assert set(d) == {"command", "error", "status", "version", "F2_tilde", "margin",
                              "margin_positive", "lambda2_slope"}, argv
            assert d["margin"] is None and d["margin_positive"] is False
        else:
            assert {"command", "config", "status", "version"} <= set(d), argv
        assert d["command"] == argv[0] and d["version"] == sigma2flow.__version__


def test_sweep_and_eigen_reruns_are_byte_identical(tmp_path):
    # each run in a fresh interpreter, so no cache is warm for either
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sigma2flow.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    for name, argv in (("sweep", ["sweep"]),
                       ("eigen", ["eigen", "--n", "9", "--grid-points", "48"])):
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.json"
            proc = subprocess.run([sys.executable, "-m", "sigma2flow", *argv, "--json", str(path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], name


def test_equilibrium_summaries_report_the_coarse_newton_stage(tmp_path):
    # on more than 32 points the coarse stage runs on 32, and Newton
    # finishes it; reruns in fresh interpreters stay byte-identical.  On 48 points, S^12
    # ends t_max without the coarse stage, on the flow's pole-pair plateau
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sigma2flow.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    for name, argv in (("eigen", ["eigen", "--grid-points", "64"]),
                       ("continuation", ["continuation", "--ladder", "2.0,1.5",
                                         "--grid-points", "64"]),
                       ("eigen12", ["eigen", "--n", "12", "--grid-points", "48"]),
                       ("continuation12", ["continuation", "--n", "12", "--grid-points", "48",
                                           "--ladder", "2,1"])):
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.json"
            proc = subprocess.run([sys.executable, "-m", "sigma2flow", *argv, "--json", str(path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], name
        d = json.loads(blobs[0])
        assert d["status"] == "converged"
        assert d["coarse_points"] == 32 and d["coarse_newton_iterations"] > 0
        assert d["coarse_evaluations"] > 32 * d["coarse_newton_iterations"]
    # on 32 points the coarse stage runs on the requested grid itself
    proc = subprocess.run([sys.executable, "-m", "sigma2flow", "eigen", "--grid-points", "32"],
                          env=env, capture_output=True, text=True, timeout=300)
    d = json.loads(proc.stdout)
    assert d["status"] == "converged"
    assert d["coarse_points"] == 32 and d["coarse_newton_iterations"] > 0
    assert d["equilibrium_residual"] <= 1e-12
    # a run that does not stop on convergence has no coarse stage
    proc = subprocess.run([sys.executable, "-m", "sigma2flow", "eigen", "--grid-points", "32",
                           "--tol-converge", "0", "--t-max", "0.1"],
                          env=env, capture_output=True, text=True, timeout=300)
    d = json.loads(proc.stdout)
    assert d["status"] == "t_max"
    assert (d["coarse_points"], d["coarse_evaluations"], d["coarse_newton_iterations"]) == (
        0, 0, 0)


def test_eigen_coarse_stage_lands_on_no_record_time(capsys):
    # with every record time a step, the coarse flow phase crawled: this
    # solve ended `timeout` at 10 s, with lambda1 9.09 after 187,205
    # evaluations
    rc, cap = run_cli(capsys, ["eigen", "--n", "9", "--grid-points", "64", "--record-dt", "1e-6",
                               "--timeout", "10"])
    assert rc == 0, cap.err
    d = json.loads(cap.out)
    assert d["status"] == "converged" and d["coarse_points"] == 32
    assert d["evaluations"] <= 1000


def test_bump_start_runs_at_its_default_amplitude(capsys):
    # each start has its own default amplitude; a bump of 0.1, the cosine's,
    # leaves the cone of S^5 at t = 0
    rc, cap = run_cli(capsys, ["flow", "--init", "bump", "--grid-points", "64",
                               "--t-max", "0.1"])
    assert rc == 0, cap.err
    d = json.loads(cap.out)
    assert d["status"] == "t_max" and d["steps"] > 0
    assert d["config"]["amplitude"] == 0.05
    rc, cap = run_cli(capsys, ["flow", "--grid-points", "64", "--t-max", "0.1"])
    assert rc == 0 and json.loads(cap.out)["config"]["amplitude"] == 0.1
    rc, cap = run_cli(capsys, ["flow", "--init", "bump", "--amplitude", "0.1",
                               "--grid-points", "64", "--t-max", "0.1"])
    assert rc == 3 and json.loads(cap.out)["status"] == "cone_exit"


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smoke config\n"
        "amplitude = 0.05\n"
        "t-max = 0.2\n"
        "grid-points = 64\n")
    rc, cap = run_cli(capsys, ["flow", "--config", str(cfg), "--t-max", "0.1",
                               "--tol-converge", "0"])
    assert rc == 0
    d = json.loads(cap.out)
    assert d["config"]["amplitude"] == 0.05  # from the file
    assert d["config"]["t_max"] == 0.1  # flag beats file
    assert d["config"]["grid_points"] == 64
    assert d["config"]["eps"] == 2.0  # untouched default


@pytest.mark.parametrize("command,line", [
    ("verify", "trials = yes"),
    ("verify", "n = 5.9"),
    ("flow", "amplitude = 0.1,0.2"),
    ("construct", "radii = 0.65,0.85,x,1.15,1.8,2.5"),
])
def test_config_values_parse_as_their_flags_do(capsys, tmp_path, command, line):
    # the flag --n 5.9 is a usage error, and so is the same value from a file
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc, cap = run_cli(capsys, [command, "--config", str(cfg)])
    assert rc == 2
    assert cap.out == "" and f"config key {line.split()[0]}: invalid value" in cap.err


def test_list_options_echo_the_same_from_a_flag_and_a_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambdas = 1e-3,3e-4,1e-4\n")
    rc_flag, by_flag = run_cli(capsys, ["sweep", "--lambdas", "1e-3,3e-4,1e-4"])
    rc_file, by_file = run_cli(capsys, ["sweep", "--config", str(cfg)])
    assert rc_flag == rc_file == 0
    assert by_flag.out == by_file.out
    assert json.loads(by_flag.out)["config"]["lambdas"] == [1e-3, 3e-4, 1e-4]


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("amplituude = 0.05\n")
    rc, cap = run_cli(capsys, ["flow", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key" in cap.err


def test_missing_config_file(capsys):
    rc, cap = run_cli(capsys, ["flow", "--config", "/no/such/file.cfg"])
    assert rc == 2


def test_unwritable_json_is_io_error(capsys):
    rc, cap = run_cli(capsys, ["verify", "--trials", "5",
                               "--json", "/no/such/dir/out.json"])
    assert rc == 4


def test_version_flag(capsys):
    assert parse_and_dispatch(["--version"]) == 0
    capsys.readouterr()


def test_imports_load_only_numpy_and_the_standard_library():
    # numpy is the only dependency: every top-level module that a fresh
    # interpreter loads for the package and its CLI is numpy, sigma2flow or
    # part of the standard library (scipy, say, is not)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sigma2flow.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    script = ("import sys; before = set(sys.modules); import sigma2flow, sigma2flow.cli; "
              "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
              "print(','.join(sorted(new - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy,sigma2flow"
