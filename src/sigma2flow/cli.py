"""Command-line front end (installed as ``sigma2``).

Commands
    flow          integrate the normalized flow, emit a monitor trace
    eigen         eps = 2 eigenvalue run
    continuation  descend an eps ladder with warm starts
    verify        self-checks: algebra consistency + integral identity
    construct     build the glued comparison metric and report its margin
    sweep         margin sweep over bubble scales with the lam^2 fit

Exit codes: 0 success (including a run that merely hit t_max or a timeout),
2 usage error, 3 numeric failure (a JSON summary with the failure status is
still emitted), 4 I/O failure.

Options may also come from a config file (``--config FILE``) of flat
``key = value`` lines with ``#`` comments; explicit flags win over the file.
All output is deterministic: reruns produce byte-identical CSV and JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .discretize import sphere_latitude
from .flow import (
    FlowConfig,
    INITIAL_FIELDS,
    continuation,
    eigen_solve,
    flow_run,
    initial_field,
    write_monitor_csv,
)
from .geometry import (
    ConeViolation,
    RoundSphere,
    divergence_identity_residual,
    round_schouten_sigma2,
)
from .symfun import (
    elementary_symmetric,
    jacobi_eigenvalues,
    sigma_k_minors,
)
from .testmetric import (
    BubbleParams,
    ConstructionError,
    assemble_and_compare,
    margin_sweep,
    sphere_constants,
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4

_FAIL_STATUSES = ("cone_exit", "blow_up_suspected", "non_finite", "error")


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# option plumbing

def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        return [_parse_value(part) for part in text.split(",")]
    return text


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise _UsageError(f"cannot read config file {path}: {e}") from None
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = _parse_value(value)
    return out


def _merge(defaults: dict, file_cfg: dict, cli: dict) -> dict:
    eff = dict(defaults)
    for key, value in file_cfg.items():
        if key not in defaults:
            raise _UsageError(f"unknown config key: {key}")
        eff[key] = value
    for key, value in cli.items():
        if value is not None:
            eff[key] = value
    return eff


def _float_list(value, count=None, what="list"):
    if isinstance(value, str):
        value = [_parse_value(p) for p in value.split(",")]
    if not isinstance(value, (list, tuple)):
        value = [value]
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError):
        raise _UsageError(f"{what} must be numeric") from None
    if count is not None and len(out) != count:
        raise _UsageError(f"{what} needs exactly {count} comma-separated values")
    return out


# ---------------------------------------------------------------------------
# emission

def emit_trace(records, path: str | None) -> None:
    """Write the monitor CSV to a file, or stdout when no path is given."""
    if path is None:
        write_monitor_csv(records, sys.stdout)
    else:
        write_monitor_csv(records, path)


def _json_safe(value):
    """``value`` with every non-finite float, nested ones too, made None."""
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def emit_summary(payload: dict, path: str | None) -> None:
    """Write the JSON summary to a file, or stdout when no path is given.

    A non-finite number (a monitor of a failed run, say) is written as
    ``null``, so the output is always strict JSON.
    """
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _summary(command: str, config: dict, status: str, **scalars) -> dict:
    return {
        "version": __version__,
        "backend": "numpy",
        "command": command,
        "config": config,
        "status": status,
        **scalars,
    }


# ---------------------------------------------------------------------------
# commands

_FLOW_DEFAULTS = {
    "n": 5,
    "eps": 2.0,
    "grid_points": 256,
    "init": "cosine",
    "amplitude": 0.1,
    "t_max": 10.0,
    "dt_safety": 0.8,
    "tol_converge": 1e-8,
    "record_dt": 0.01,
    "timeout": None,
}


def _flow_pieces(cfg: dict):
    n = int(cfg["n"])
    if n < 5:
        raise _UsageError(f"the flow needs dimension n >= 5, got {n}")
    if cfg["init"] not in INITIAL_FIELDS:
        known = ", ".join(sorted(INITIAL_FIELDS))
        raise _UsageError(f"unknown init '{cfg['init']}' (known: {known})")
    if int(cfg["grid_points"]) < 16:
        raise _UsageError("grid_points must be at least 16")
    background = RoundSphere(n)
    grid = sphere_latitude(n, int(cfg["grid_points"]))
    u0 = initial_field(cfg["init"], grid, float(cfg["amplitude"]))
    fc = FlowConfig(
        eps=float(cfg["eps"]),
        t_max=float(cfg["t_max"]),
        dt_safety=float(cfg["dt_safety"]),
        tol_converge=float(cfg["tol_converge"]),
        record_dt=float(cfg["record_dt"]),
        timeout=None if cfg["timeout"] is None else float(cfg["timeout"]),
    )
    return background, grid, u0, fc


def _cmd_flow(cfg: dict, args) -> int:
    background, grid, u0, fc = _flow_pieces(cfg)
    res = flow_run(background, u0, fc, grid=grid)
    if args.csv is not None:
        emit_trace(res.records, args.csv)
    payload = _summary(
        "flow", cfg, res.status,
        t=res.t, steps=res.steps,
        F2=res.F2, V_eps=res.V_eps, r_eps=res.r_eps, s_eps=res.s_eps,
        equilibrium_residual=res.equilibrium_residual,
        max_V_drift=res.max_V_drift,
        max_step_F2_increase=res.max_step_F2_increase,
    )
    emit_summary(payload, args.json)
    return _EXIT_NUMERIC if res.status in _FAIL_STATUSES else _EXIT_OK


def _cmd_eigen(cfg: dict, args) -> int:
    cfg = dict(cfg)
    cfg["eps"] = 2.0
    background, grid, u0, fc = _flow_pieces(cfg)
    res = eigen_solve(background, u0, fc, grid=grid)
    if args.csv is not None:
        emit_trace(res.flow.records, args.csv)
    payload = _summary(
        "eigen", cfg, res.flow.status,
        lambda1=res.lambda1,
        t=res.flow.t, steps=res.flow.steps,
        F2=res.flow.F2, V_eps=res.flow.V_eps,
        equilibrium_residual=res.flow.equilibrium_residual,
    )
    emit_summary(payload, args.json)
    return _EXIT_NUMERIC if res.flow.status in _FAIL_STATUSES else _EXIT_OK


_CONT_DEFAULTS = dict(_FLOW_DEFAULTS, ladder=[2.0, 1.5, 1.0, 0.5, 0.25],
                      t_max=200.0, tol_converge=1e-8)
_CONT_DEFAULTS.pop("eps")


def _cmd_continuation(cfg: dict, args) -> int:
    ladder = _float_list(cfg["ladder"], what="ladder")
    run_cfg = dict(cfg, eps=ladder[0])
    background, grid, u0, fc = _flow_pieces(run_cfg)
    rungs = continuation(background, u0, ladder, fc)
    status = rungs[-1].status
    payload = _summary(
        "continuation", cfg, status,
        rungs=[
            {
                "eps": r.eps,
                "status": r.status,
                "Y_eps": r.Y_eps,
                "Y2_estimate": r.Y2_estimate,
                "F2": r.F2,
                "V_eps": r.V_eps,
                "r_eps": r.r_eps,
            }
            for r in rungs
        ],
    )
    emit_summary(payload, args.json)
    return _EXIT_NUMERIC if status in _FAIL_STATUSES else _EXIT_OK


_VERIFY_DEFAULTS = {
    "n": 5,
    "grid_points": 200,
    "amplitude": 0.2,
    "trials": 200,
    "seed": 0,
}


def _cmd_verify(cfg: dict, args) -> int:
    n = int(cfg["n"])
    if n < 5:
        raise _UsageError(f"verify needs dimension n >= 5, got {n}")
    rng = np.random.default_rng(int(cfg["seed"]))
    worst = 0.0
    for _ in range(int(cfg["trials"])):
        m = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = q @ np.diag(rng.standard_normal(m)) @ q.T
        a = 0.5 * (a + a.T)
        s2_eig = float(elementary_symmetric(jacobi_eigenvalues(a))[2])
        s2_minor = sigma_k_minors(a, 2)
        s2_trace = float(0.5 * (np.trace(a) ** 2 - np.sum(a * a)))
        scale = max(1.0, abs(s2_eig))
        worst = max(worst, abs(s2_minor - s2_eig) / scale,
                    abs(s2_trace - s2_eig) / scale)

    background = RoundSphere(n)
    grid = sphere_latitude(n, int(cfg["grid_points"]))
    u = float(cfg["amplitude"]) * np.cos(grid.x)
    res_coarse = divergence_identity_residual(grid, background, u)
    grid2 = sphere_latitude(n, 2 * int(cfg["grid_points"]))
    u2 = float(cfg["amplitude"]) * np.cos(grid2.x)
    res_fine = divergence_identity_residual(grid2, background, u2)

    sc = sphere_constants(max(n, 5))
    ok = worst < 1e-10 and res_coarse < 1e-3
    payload = _summary(
        "verify", cfg, "ok" if ok else "error",
        sigma2_consistency=worst,
        divergence_residual=res_coarse,
        divergence_residual_refined=res_fine,
        refinement_gain=(res_coarse / res_fine if res_fine > 0 else float("inf")),
        round_sigma2=round_schouten_sigma2(n),
        B=sc.B,
        Y2_sphere=sc.Y2_sphere,
    )
    emit_summary(payload, args.json)
    return _EXIT_OK if ok else _EXIT_NUMERIC


_CONSTRUCT_DEFAULTS = {
    "n": 9,
    "lam": 1e-4,
    "gamma": 1.5,
    "beta": 0.3,
    "delta_r": -1.0,
    "a_pad": 0.01,
    "eps_margin": None,
    "radii": [0.65, 0.85, 1.0, 1.15, 1.8, 2.5],
    "r_cut": 0.12,
    "cut_width": 0.04,
}


def _finite_energies(reports) -> bool:
    """True when every assembly, and its flat twin, has a finite F2, volume
    and margin; an overflowing quadrature (at large n, say) yields none."""
    return all(math.isfinite(value)
               for rep in reports for am in (rep, rep.flat) if am is not None
               for value in (am.F2, am.volume, am.margin))


def _cmd_construct(cfg: dict, args) -> int:
    radii = _float_list(cfg["radii"], 6, "radii")
    try:
        bp = BubbleParams(int(cfg["n"]), float(cfg["lam"]), radii[-1],
                          float(cfg["beta"]), float(cfg["delta_r"]))
    except ValueError as e:
        raise _UsageError(str(e)) from None
    eps_margin = cfg["eps_margin"]
    rep = assemble_and_compare(
        bp, float(cfg["gamma"]), radii, float(cfg["a_pad"]),
        None if eps_margin is None else float(eps_margin),
        float(cfg["r_cut"]), float(cfg["cut_width"]))
    ok = _finite_energies([rep])
    payload = _summary(
        "construct", cfg, "ok" if ok else "error",
        gamma2_ok=rep.gamma2_ok,
        F2_tilde=rep.F2_tilde,
        Y2_sphere=rep.Y2_sphere,
        margin=rep.margin,
        margin_positive=rep.margin > 0,
        lambda2_slope=rep.lambda2_slope,
        lambda2_target=rep.lambda2_target,
        beta_in_proof_range=rep.beta_in_proof_range,
        beta_warning=not rep.beta_in_proof_range,
        delta=rep.delta,
        delta1=rep.delta1,
        b0=rep.b0,
        b1=rep.b1,
        eps_margin=rep.eps_margin,
        regions=[
            {
                "name": r.name,
                "energy": r.energy,
                "volume": r.volume,
                "min_sigma1": r.min_sigma1,
                "min_sigma2": r.min_sigma2,
                "in_cone": r.in_cone,
                "quad_nodes": r.quad_nodes,
                "cone_nodes": r.cone_nodes,
            }
            for r in rep.regions
        ],
    )
    emit_summary(payload, args.json)
    return _EXIT_OK if ok else _EXIT_NUMERIC


_SWEEP_DEFAULTS = {
    "n": 9,
    "lambdas": [1e-3, 3e-4, 1e-4],
    "gamma": 1.05,
    "beta": 0.26,
    "delta_r": -1.0,
    "a_pad": 0.01,
    "eps_margin": None,
    "radii": [0.65, 0.85, 1.0, 1.15, 1.8, 2.5],
    "r_cut": 0.12,
    "cut_width": 0.04,
}


def _cmd_sweep(cfg: dict, args) -> int:
    radii = _float_list(cfg["radii"], 6, "radii")
    lams = _float_list(cfg["lambdas"], what="lambdas")
    if float(cfg["delta_r"]) >= 0.0:
        raise _UsageError("the sweep needs a strict deficit deltaR < 0")
    eps_margin = cfg["eps_margin"]
    try:
        sw = margin_sweep(
            int(cfg["n"]), tuple(lams), float(cfg["gamma"]), float(cfg["beta"]),
            tuple(radii), float(cfg["delta_r"]), float(cfg["a_pad"]),
            None if eps_margin is None else float(eps_margin),
            float(cfg["r_cut"]), float(cfg["cut_width"]))
    except ValueError as e:
        raise _UsageError(str(e)) from None
    ok = _finite_energies(sw.reports)
    payload = _summary(
        "sweep", cfg, "ok" if ok else "error",
        lams=list(sw.lams),
        margins=list(sw.margins),
        flat_margins=list(sw.flat_margins),
        F2_tilde=list(sw.F2_tilde),
        F2_tilde_flat=list(sw.F2_tilde_flat),
        K2_fit=sw.K2_fit,
        K2_target=sw.K2_target,
        K2_rel_dev=sw.K2_rel_dev,
        all_margins_positive=all(m > 0 for m in sw.margins),
    )
    emit_summary(payload, args.json)
    return _EXIT_OK if ok else _EXIT_NUMERIC


# ---------------------------------------------------------------------------
# dispatch

def _add_common(p):
    p.add_argument("--config", help="flat key = value option file")
    p.add_argument("--json", help="summary output path (default: stdout)")


def _add_flow_options(p, with_eps=True):
    p.add_argument("--n", type=int)
    if with_eps:
        p.add_argument("--eps", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--init")
    p.add_argument("--amplitude", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--dt-safety", dest="dt_safety", type=float)
    p.add_argument("--tol-converge", dest="tol_converge", type=float)
    p.add_argument("--record-dt", dest="record_dt", type=float)
    p.add_argument("--timeout", type=float)
    p.add_argument("--csv", help="monitor trace output path")


def _add_construct_options(p, include_lambda=True):
    p.add_argument("--n", type=int)
    if include_lambda:
        p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--deltaR", "--delta-r", dest="delta_r", type=float)
    p.add_argument("--A", dest="a_pad", type=float)
    p.add_argument("--eps-margin", dest="eps_margin", type=float)
    p.add_argument("--radii")
    p.add_argument("--r-cut", dest="r_cut", type=float)
    p.add_argument("--cut-width", dest="cut_width", type=float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma2",
        description="Radial sigma_2 flow and comparison-metric toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="integrate the normalized flow")
    _add_flow_options(p)
    _add_common(p)

    p = sub.add_parser("eigen", help="eps = 2 eigenvalue run")
    _add_flow_options(p, with_eps=False)
    _add_common(p)

    p = sub.add_parser("continuation", help="descend an eps ladder")
    _add_flow_options(p, with_eps=False)
    p.add_argument("--ladder", help="comma-separated eps values")
    _add_common(p)

    p = sub.add_parser("verify", help="algebra and identity self-checks")
    p.add_argument("--n", type=int)
    p.add_argument("--grid-points", dest="grid_points", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    p = sub.add_parser("construct", help="assemble the comparison metric")
    _add_construct_options(p)
    _add_common(p)

    p = sub.add_parser("sweep", help="margin sweep over bubble scales")
    _add_construct_options(p, include_lambda=False)
    p.add_argument("--lambdas", help="comma-separated bubble scales")
    _add_common(p)

    return parser


_COMMANDS = {
    "flow": (_FLOW_DEFAULTS, _cmd_flow),
    "eigen": ({k: v for k, v in _FLOW_DEFAULTS.items() if k != "eps"}, _cmd_eigen),
    "continuation": (_CONT_DEFAULTS, _cmd_continuation),
    "verify": (_VERIFY_DEFAULTS, _cmd_verify),
    "construct": (_CONSTRUCT_DEFAULTS, _cmd_construct),
    "sweep": (_SWEEP_DEFAULTS, _cmd_sweep),
}


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments, run the selected command, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0) if e.code != 2 else _EXIT_USAGE

    defaults, handler = _COMMANDS[args.command]
    try:
        file_cfg = _read_config(args.config) if args.config else {}
        cli_cfg = {k: v for k, v in vars(args).items()
                   if k in defaults and v is not None}
        cfg = _merge(defaults, file_cfg, cli_cfg)
        return handler(cfg, args)
    except (_UsageError, ValueError) as e:
        print(f"sigma2 {args.command}: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except (ConstructionError, ConeViolation) as e:
        payload = {
            "version": __version__,
            "command": args.command,
            "status": "error",
            "error": str(e),
        }
        try:
            emit_summary(payload, args.json)
        except OSError as io_err:
            print(f"sigma2 {args.command}: {io_err}", file=sys.stderr)
            return _EXIT_IO
        return _EXIT_NUMERIC
    except OSError as e:
        print(f"sigma2 {args.command}: {e}", file=sys.stderr)
        return _EXIT_IO


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
