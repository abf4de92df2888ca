"""Command-line front end (installed as ``sigma2``).

Commands
    flow          integrate the normalized flow, emit a monitor trace
    eigen         eps = 2 eigenvalue run
    continuation  descend an eps ladder with warm starts
    verify        self-checks: algebra consistency + integral identity
    construct     build the glued comparison metric and report its margin
    sweep         margin sweep over bubble scales with the lam^2 fit

A command's options are the keys of its defaults table, each a flag
(``--`` plus the key with dashes) and a config key.  Options may also come
from a config file (``--config FILE``) of flat ``key = value`` lines with
``#`` comments; explicit flags win over the file.  A value parses the same
way from the file as from its flag.

A command's handler takes the merged options and returns ``(status, keys,
records)``: its status, its summary keys and its monitor trace (None but
for flow and eigen).  ``parse_and_dispatch`` is the one place that writes
them, the CSV and the JSON summary, and maps a status to an exit code: 0
success (including a run that merely hit t_max or a timeout), 2 usage
error, 3 numeric failure, a FloatingPointError included (a JSON summary
with the failure status is still emitted), 4 I/O failure.  All output is
deterministic: reruns produce byte-identical CSV and JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .discretize import sphere_latitude
from .flow import (
    INITIAL_FIELDS,
    FlowConfig,
    continuation,
    eigen_solve,
    flow_run,
    initial_field,
    write_monitor_csv,
)
from .geometry import (
    RoundSphere,
    divergence_identity_residual,
    round_schouten_sigma2,
)
from .symfun import sigma_k, sigma_k_minors
from .testmetric import (
    STANDARD_RADII,
    BubbleParams,
    ConstructionError,
    assemble_and_compare,
    check_radii,
    margin_sweep,
    sphere_constants,
)

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_IO = 4

_FAIL_STATUSES = ("cone_exit", "blow_up_suspected", "non_finite", "stalled", "error")


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# option plumbing

def _floats(text: str) -> list[float]:
    """A comma-separated list of numbers."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


#: the one converter of each option, for its flag and its config key alike
_CONVERTERS = {
    "n": int, "eps": float, "grid_points": int, "init": str, "amplitude": float,
    "t_max": float, "dt_safety": float, "tol_converge": float, "record_dt": float,
    "timeout": float, "ladder": _floats, "trials": int, "seed": int,
    "lam": float, "gamma": float, "beta": float, "delta_r": float,
    "radii": _floats, "lambdas": _floats,
}

#: the flags of the keys whose flag is not ``--`` plus the key with dashes
_FLAGS = {"lam": ("--lambda",), "delta_r": ("--deltaR", "--delta-r")}

#: what a None default means, for the keys where it is not "none"
_NONE_DEFAULTS = {"amplitude": "the start's own (" + ", ".join(
    f"{name} {default}" for name, (_, default) in INITIAL_FIELDS.items()) + ")"}


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
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge(defaults: dict, file_cfg: dict, cli: dict) -> dict:
    eff = dict(defaults)
    for key, text in file_cfg.items():
        if key not in defaults:
            raise _UsageError(f"unknown config key: {key}")
        try:
            eff[key] = _CONVERTERS[key](text)
        except (ValueError, argparse.ArgumentTypeError):
            raise _UsageError(f"config key {key}: invalid value {text!r}") from None
    for key, value in cli.items():
        if value is not None:
            eff[key] = value
    return eff


# ---------------------------------------------------------------------------
# emission

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


def _summary(command: str, status: str, **keys) -> dict:
    return {"version": __version__, "command": command, "status": status, **keys}


# ---------------------------------------------------------------------------
# commands

_FLOW_DEFAULTS = {
    "n": 5,
    "eps": 2.0,
    "grid_points": 256,
    "init": "cosine",
    # None: the start's own default (flow.INITIAL_FIELDS), which the summary reports
    "amplitude": None,
    "t_max": 10.0,
    "dt_safety": 0.8,
    "tol_converge": 1e-8,
    "record_dt": 0.01,
    "timeout": None,
}


def _flow_pieces(cfg: dict, eps: float | None = None):
    """Background, grid, start and FlowConfig of a flow command; a default
    amplitude in ``cfg`` becomes the start's own."""
    background = RoundSphere(cfg["n"])
    grid = sphere_latitude(cfg["n"], cfg["grid_points"])
    u0 = initial_field(cfg["init"], grid, cfg["amplitude"])
    if cfg["amplitude"] is None:
        cfg["amplitude"] = INITIAL_FIELDS[cfg["init"]][1]
    fc = FlowConfig(
        eps=cfg["eps"] if eps is None else eps,
        t_max=cfg["t_max"],
        dt_safety=cfg["dt_safety"],
        tol_converge=cfg["tol_converge"],
        record_dt=cfg["record_dt"],
        timeout=cfg["timeout"],
    )
    return background, grid, u0, fc


def _cmd_flow(cfg: dict):
    background, grid, u0, fc = _flow_pieces(cfg)
    res = flow_run(background, u0, fc, grid=grid)
    return res.status, dict(
        t=res.t, steps=res.steps, rejected_steps=res.rejected_steps,
        evaluations=res.evaluations, step_tol=fc.step_tol,
        F2=res.F2, V_eps=res.V_eps, r_eps=res.r_eps, s_eps=res.s_eps,
        equilibrium_residual=res.equilibrium_residual,
        max_V_drift=res.max_V_drift,
        max_step_F2_increase=res.max_step_F2_increase,
    ), res.records


def _coarse_work(coarse) -> dict:
    """Summary keys of an equilibrium solve's coarse-grid stage (0 without one)."""
    if coarse is None:
        return {"coarse_points": 0, "coarse_evaluations": 0, "coarse_newton_iterations": 0}
    return {"coarse_points": coarse.points, "coarse_evaluations": coarse.evaluations,
            "coarse_newton_iterations": coarse.newton_iterations}


def _cmd_eigen(cfg: dict):
    cfg["eps"] = 2.0
    background, grid, u0, fc = _flow_pieces(cfg)
    res = eigen_solve(background, u0, fc, grid=grid)
    return res.flow.status, dict(
        lambda1=res.lambda1,
        t=res.flow.t, steps=res.flow.steps,
        evaluations=res.flow.evaluations, **_coarse_work(res.coarse), step_tol=fc.step_tol,
        F2=res.flow.F2, V_eps=res.flow.V_eps,
        equilibrium_residual=res.flow.equilibrium_residual,
        max_V_drift=res.flow.max_V_drift,
    ), res.flow.records


_CONT_DEFAULTS = dict(_FLOW_DEFAULTS, ladder=[2.0, 1.5, 1.0, 0.5, 0.25],
                      t_max=200.0, tol_converge=1e-8)
_CONT_DEFAULTS.pop("eps")


def _cmd_continuation(cfg: dict):
    ladder = cfg["ladder"]
    background, grid, u0, fc = _flow_pieces(cfg, ladder[0])
    rungs = continuation(background, u0, ladder, fc)
    return rungs[-1].status, dict(
        step_tol=fc.step_tol, **_coarse_work(rungs[0].coarse),
        rungs=[
            {
                "eps": r.eps,
                "status": r.status,
                "Y_eps": r.Y_eps,
                "Y2_estimate": r.Y2_estimate,
                "F2": r.F2,
                "V_eps": r.V_eps,
                "r_eps": r.r_eps,
                "evaluations": r.evaluations,
            }
            for r in rungs
        ],
    ), None


_VERIFY_DEFAULTS = {
    "n": 5,
    "grid_points": 200,
    "amplitude": 0.2,
    "trials": 200,
    "seed": 0,
}


def _cmd_verify(cfg: dict):
    if cfg["trials"] < 1:
        raise _UsageError(f"trials must be >= 1, got {cfg['trials']}")
    n = cfg["n"]
    sc = sphere_constants(n)
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    for _ in range(cfg["trials"]):
        m = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = q @ np.diag(rng.standard_normal(m)) @ q.T
        a = 0.5 * (a + a.T)
        s2_eig = sigma_k(a, 2)
        s2_minor = sigma_k_minors(a, 2)
        s2_trace = float(0.5 * (np.trace(a) ** 2 - np.sum(a * a)))
        scale = max(1.0, abs(s2_eig))
        worst = max(worst, abs(s2_minor - s2_eig) / scale,
                    abs(s2_trace - s2_eig) / scale)

    background = RoundSphere(n)
    grid = sphere_latitude(n, cfg["grid_points"])
    u = cfg["amplitude"] * np.cos(grid.x)
    res_coarse = divergence_identity_residual(grid, background, u)
    grid2 = sphere_latitude(n, 2 * cfg["grid_points"])
    u2 = cfg["amplitude"] * np.cos(grid2.x)
    res_fine = divergence_identity_residual(grid2, background, u2)

    ok = worst < 1e-10 and res_coarse < 1e-3
    return "ok" if ok else "error", dict(
        sigma2_consistency=worst,
        divergence_residual=res_coarse,
        divergence_residual_refined=res_fine,
        refinement_gain=(res_coarse / res_fine if res_fine > 0 else float("inf")),
        round_sigma2=round_schouten_sigma2(n),
        B=sc.B,
        Y2_sphere=sc.Y2_sphere,
    ), None


_CONSTRUCT_DEFAULTS = {
    "n": 9,
    "lam": 1e-4,
    "gamma": 1.5,
    "beta": 0.3,
    "delta_r": -1.0,
    "radii": list(STANDARD_RADII),
}


def _finite_energies(reports) -> bool:
    """True when every assembly, and its flat twin, has a finite F2, volume
    and margin; an overflowing quadrature (at large n, say) yields none."""
    return all(math.isfinite(value)
               for rep in reports for am in (rep, rep.flat) if am is not None
               for value in (am.F2, am.volume, am.margin))


def _cmd_construct(cfg: dict):
    radii = check_radii(cfg["radii"])
    bp = BubbleParams(cfg["n"], cfg["lam"], radii[-1], cfg["beta"], cfg["delta_r"])
    rep = assemble_and_compare(bp, cfg["gamma"], radii)
    return "ok" if _finite_energies([rep]) else "error", dict(
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
    ), None


_SWEEP_DEFAULTS = {
    "n": 9,
    "lambdas": [1e-3, 3e-4, 1e-4],
    "gamma": 1.05,
    "beta": 0.26,
    "delta_r": -1.0,
    "radii": list(STANDARD_RADII),
}


def _cmd_sweep(cfg: dict):
    sw = margin_sweep(cfg["n"], tuple(cfg["lambdas"]), cfg["gamma"], cfg["beta"],
                      tuple(cfg["radii"]), cfg["delta_r"])
    return "ok" if _finite_energies(sw.reports) else "error", dict(
        lams=list(sw.lams),
        margins=list(sw.margins),
        flat_margins=list(sw.flat_margins),
        F2_tilde=list(sw.F2_tilde),
        F2_tilde_flat=list(sw.F2_tilde_flat),
        K2_fit=sw.K2_fit,
        K2_target=sw.K2_target,
        K2_rel_dev=sw.K2_rel_dev,
        all_margins_positive=all(m > 0 for m in sw.margins),
    ), None


# ---------------------------------------------------------------------------
# dispatch

#: a negative decimal number, with or without an exponent
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse, reading every negative number after an option as its value.

    argparse's own pattern knows only ``-1`` and ``-.5``, so it reads
    ``--deltaR -1e-2`` as a missing value.  No option here looks like a
    number, so the wider pattern is safe; ``add_subparsers`` makes the
    subcommand parsers of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


#: each command's defaults table, which names its options, its handler and
#: its help line
_COMMANDS = {
    "flow": (_FLOW_DEFAULTS, _cmd_flow, "integrate the normalized flow"),
    "eigen": ({k: v for k, v in _FLOW_DEFAULTS.items() if k != "eps"}, _cmd_eigen,
              "eps = 2 eigenvalue run"),
    "continuation": (_CONT_DEFAULTS, _cmd_continuation, "descend an eps ladder"),
    "verify": (_VERIFY_DEFAULTS, _cmd_verify, "algebra and identity self-checks"),
    "construct": (_CONSTRUCT_DEFAULTS, _cmd_construct, "assemble the comparison metric"),
    "sweep": (_SWEEP_DEFAULTS, _cmd_sweep, "margin sweep over bubble scales"),
}

#: the commands that write a monitor trace
_TRACE_COMMANDS = ("flow", "eigen")


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag per key of its defaults table."""
    parser = _Parser(
        prog="sigma2",
        description="Radial sigma_2 flow and comparison-metric toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key, default in defaults.items():
            flags = _FLAGS.get(key, ("--" + key.replace("_", "-"),))
            shown = _NONE_DEFAULTS.get(key) if default is None else default
            p.add_argument(*flags, dest=key, type=_CONVERTERS[key], help=f"default: {shown}")
        if name in _TRACE_COMMANDS:
            p.add_argument("--csv", help="monitor trace output path")
        p.add_argument("--config", help="flat key = value option file")
        p.add_argument("--json", help="summary output path (default: stdout)")
    return parser


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments, run the selected command, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0) if e.code != 2 else _EXIT_USAGE

    defaults, handler, _ = _COMMANDS[args.command]
    try:
        file_cfg = _read_config(args.config) if args.config else {}
        cfg = _merge(defaults, file_cfg, {key: getattr(args, key) for key in defaults})
        status, keys, records = handler(cfg)
        payload = _summary(args.command, status, config=cfg, **keys)
    except (_UsageError, ValueError) as e:
        print(f"sigma2 {args.command}: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except (ConstructionError, FloatingPointError) as e:
        status, records = "error", None
        payload = _summary(args.command, status, error=str(e))
    try:
        if records is not None and args.csv is not None:
            write_monitor_csv(records, args.csv)
        emit_summary(payload, args.json)
    except OSError as e:
        print(f"sigma2 {args.command}: {e}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_NUMERIC if status in _FAIL_STATUSES else _EXIT_OK


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
