"""Command-line interface tests, run in-process through parse_and_dispatch."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigma2flow
from sigma2flow.cli import parse_and_dispatch
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
    assert "backend" in d and "version" in d and "config" in d


def test_verify_runs_the_eigen_route_once_per_trial(capsys, monkeypatch):
    # the eigen route is compared with the minors and the trace formula
    import sigma2flow.cli as cli_module
    import sigma2flow.symfun as symfun_module

    calls = []
    real = symfun_module.jacobi_eigenvalues

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(cli_module, "jacobi_eigenvalues", counting)
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


def test_usage_errors(capsys):
    cases = [
        ["flow", "--n", "3"],
        ["flow", "--init", "sawtooth"],
        ["flow", "--grid-points", "8"],
        ["verify", "--n", "4"],
        ["sweep", "--deltaR", "0.0"],
        ["construct", "--radii", "1,2,3"],
        ["construct", "--beta", "0.6"],
        ["nonsense"],
    ]
    for argv in cases:
        rc, cap = run_cli(capsys, argv)
        assert rc == 2, argv


def test_flow_settings_are_usage_errors(capsys):
    # FlowConfig checks the settings; each case ran (or failed on a math
    # domain error) before it did
    for flag, value in (("--dt-safety", "-1"), ("--t-max", "nan"), ("--t-max", "-1"),
                        ("--record-dt", "inf")):
        rc, cap = run_cli(capsys, ["flow", "--grid-points", "32", "--t-max", "0.1",
                                   "--tol-converge", "1e-2", flag, value])
        assert rc == 2, (flag, value)
        assert flag[2:].replace("-", "_") in cap.err


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


def test_cli_import_leaves_scipy_out():
    # numpy is the only dependency: a fresh interpreter that imports the CLI
    # must not pull in scipy
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sigma2flow.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sigma2flow.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
