"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload object is built from a seed (that is the set-up: the program
only ever sees the inputs generated here) and runs the same round of
operations each time ``run_round`` is called.  Every operation is timed on
its own and then checked; an operation either passes, fails (the program
raised, exited with the wrong code or wrote output that does not parse) or
is wrong (its output parsed but a check rejected it).
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from sigma2flow import discretize, flow, geometry, testmetric


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    outcome: str = "ok"            # ok | failed | wrong
    problems: list = field(default_factory=list)


def _cpu() -> float:
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class _Round:
    """Collects the timed operations of one round."""

    def __init__(self):
        self.ops: list[OpResult] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Time ``fn``; an exception marks the operation failed."""
        c0, t0 = _cpu(), time.perf_counter()
        try:
            value = fn(*args, **kwargs)
            err = None
        except Exception as e:  # the program failing is a measured outcome
            value, err = None, f"{type(e).__name__}: {e}"
        op = OpResult(name, time.perf_counter() - t0, _cpu() - c0)
        if err is not None:
            op.outcome, op.problems = "failed", [err]
        self.ops.append(op)
        return op, value

    @staticmethod
    def judge(op: OpResult, problems) -> None:
        if problems and op.outcome == "ok":
            op.outcome = "wrong"
        op.problems.extend(problems)


# ---------------------------------------------------------------------------
# relax: eigen, pair and continuation runs

def admissible_start(rng, n: int) -> tuple[float, float, float]:
    """Coefficients of a cos x + b cos 2x + c cos 3x inside Gamma_2^+ of S^n.

    |a| is fixed: the cos x mode decays slowest and sets how long a run
    takes to converge, so the seed changes the shape but not the work much.
    """
    coeffs = (float(rng.choice((-1.0, 1.0))) * 0.1,
              float(rng.uniform(-0.03, 0.03)),
              float(rng.uniform(-0.012, 0.012)))
    while not checks.in_cone(n, coeffs):
        coeffs = tuple(0.5 * a for a in coeffs)
    return coeffs


class Relax:
    """eigen_solve on S^5 and S^9, criterion 3's pair and one continuation ladder."""

    LADDER = (2.0, 1.5, 1.0, 0.5, 0.25)
    #: (label, n, grid points) of each eigen solve; the first four are pairs
    EIGEN = (("s5_a", 5, 128), ("s5_b", 5, 128), ("s9_a", 9, 128), ("s9_b", 9, 128),
             ("s5_512", 5, 512))

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.starts = {}
        for label, n, points in self.EIGEN:
            self.starts[label] = self._start(rng, n, points)
        self.pair = self._start(rng, 5, 128)
        self.ladder = self._start(rng, 5, 256)

    @staticmethod
    def _start(rng, n: int, points: int):
        grid = discretize.sphere_latitude(n, points)
        coeffs = admissible_start(rng, n)
        return geometry.RoundSphere(n), grid, checks.cosine_sum(coeffs, grid.x)[0]

    def run_round(self) -> list[OpResult]:
        rd = _Round()
        finals = {}
        for label, n, _ in self.EIGEN:
            sphere, _, u0 = self.starts[label]
            op, res = rd.call(f"eigen_{label}", flow.eigen_solve, sphere, u0)
            if res is None:
                continue
            finals[label] = res.u
            bad = checks.check_eigen(n, res.lambda1, res.flow.status)
            bad += checks.check_f2_monotone([r.F2 for r in res.flow.records],
                                            res.flow.max_step_F2_increase, res.flow.F2)
            if label.endswith("_b") and label[:-1] + "a" in finals:
                bad += checks.check_same_mod_constants(finals[label[:-1] + "a"], res.u)
            rd.judge(op, bad)

        sphere, grid, u0 = self.pair
        runs = []
        for dt_safety in (0.8, 0.4):
            cfg = flow.FlowConfig(eps=2.0, t_max=10.0, dt_safety=dt_safety, tol_converge=0.0)
            op, res = rd.call(f"pair_{dt_safety}", flow.flow_run, sphere, u0, cfg, grid=grid)
            if res is not None:
                rd.judge(op, checks.check_f2_monotone(
                    [r.F2 for r in res.records], res.max_step_F2_increase, res.F2))
                runs.append(res)
        if len(runs) == 2:
            rd.judge(op, checks.check_conservation(*runs))

        sphere, _, u0 = self.ladder
        op, rungs = rd.call("continuation", flow.continuation, sphere, u0, self.LADDER)
        if rungs is not None:
            rd.judge(op, checks.check_ladder(5, self.LADDER, rungs))
        return rd.ops


# ---------------------------------------------------------------------------
# construct: the glued comparison metric

def lam_ladder(rng) -> tuple[float, float, float]:
    """Three bubble scales in [1e-5, 1e-3], each 4-8x below the last."""
    top = 10.0 ** rng.uniform(-3.2, -3.0)
    mid = top * 10.0 ** -rng.uniform(0.6, 0.9)
    return (float(top), float(mid), float(mid * 10.0 ** -rng.uniform(0.6, 0.9)))


class Construct:
    """margin_sweep, glue_lemma6 and assemble_and_compare at n = 9, 10, 12."""

    DIMS = (9, 10, 12)
    #: beta draws stay inside the proof range (1/4, (n-4)/(2n)); at n = 9 the
    #: sub-range keeps every margin of the sweep positive down to lam = 1e-5
    BETA = {9: (0.258, 0.263), 10: (0.255, 0.29), 12: (0.26, 0.32)}
    SWEEP_GAMMA = 1.05
    GAMMA = 1.5
    DELTA_R = -1.0

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.cases = []
        for n in self.DIMS:
            beta = float(rng.uniform(*self.BETA[n]))
            self.cases.append({
                "n": n,
                "beta": beta,
                "lams": lam_ladder(rng),
                "glue": testmetric.BubbleParams(n, float(10.0 ** rng.uniform(-5, -3)),
                                                beta=beta),
                "assemble": testmetric.BubbleParams(
                    n, float(10.0 ** rng.uniform(-5, -3)), 2.5, beta, self.DELTA_R),
            })

    def run_round(self) -> list[OpResult]:
        rd = _Round()
        for case in self.cases:
            n, beta = case["n"], case["beta"]
            op, sw = rd.call(f"sweep_n{n}", testmetric.margin_sweep, n, case["lams"],
                             self.SWEEP_GAMMA, beta, delta_r=self.DELTA_R)
            if sw is not None:
                sc = testmetric.sphere_constants(n)
                bad = checks.check_constants(n, sc.B, sc.C)
                # the fit basis of margin_sweep is right at n = 9 only
                if n == 9:
                    bad += checks.check_sweep(n, sw.margins, sw.K2_fit, self.DELTA_R)
                rd.judge(op, bad)

            bp = case["glue"]
            op, g = rd.call(f"glue_n{n}", testmetric.glue_lemma6, bp, self.GAMMA)
            if g is not None:
                r = np.geomspace(g.delta, g.delta1, 257)
                resid = float(np.abs(checks.slope_residual(g.alpha, r, g.A, n)).max())
                rd.judge(op, checks.check_glue(n, bp.lam, self.GAMMA, g.delta, g.delta1,
                                               resid, g.cone_ok))

            op, rep = rd.call(f"assemble_n{n}", testmetric.assemble_and_compare,
                              case["assemble"], self.GAMMA)
            if rep is not None:
                rd.judge(op, checks.check_assembled(n, beta, rep, self.DELTA_R))
        return rd.ops


# ---------------------------------------------------------------------------
# cli: one sigma2 process per command

def sigma2_argv(args) -> list[str]:
    return [sys.executable, "-m", "sigma2flow", *args]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class Cli:
    """verify, construct, sweep, flow --csv, eigen and a cone exit, each twice."""

    #: starts far outside Gamma_2^+: the flow must stop at step 0 with exit 3
    CONE_EXIT = ["flow", "--amplitude", "3"]

    def __init__(self, seed: int, src: Path, scratch: Path, tracer=None):
        rng = np.random.default_rng([seed, 3])
        self.src, self.scratch, self.tracer = src, scratch, tracer
        self.n_construct = int(rng.choice((9, 10, 12)))
        self.construct_beta = float(rng.uniform(*Construct.BETA[self.n_construct]))
        self.construct_lam = float(10.0 ** rng.uniform(-5, -3))
        self.sweep_lams = lam_ladder(rng)
        self.sweep_beta = float(rng.uniform(*Construct.BETA[9]))
        self.commands = {
            "verify": ["verify", "--trials", "1000", "--seed", str(int(rng.integers(1 << 30)))],
            "construct": ["construct", "--n", str(self.n_construct),
                          "--lambda", repr(self.construct_lam),
                          "--beta", repr(self.construct_beta)],
            "sweep": ["sweep", "--lambdas", ",".join(repr(v) for v in self.sweep_lams),
                      "--beta", repr(self.sweep_beta)],
            "flow": ["flow", "--grid-points", "96", "--t-max", "1.0", "--tol-converge", "0",
                     "--record-dt", "0.05", "--amplitude", repr(float(rng.uniform(0.05, 0.12)))],
            "eigen": ["eigen", "--n", "9", "--grid-points", "48",
                      "--amplitude", repr(float(rng.uniform(0.05, 0.12)))],
            "cone_exit": self.CONE_EXIT,
        }

    def _run(self, rd: _Round, name: str, tag: str):
        """Run one command; returns (op, exit code, summary bytes, csv bytes)."""
        out_json = self.scratch / f"{name}_{tag}.json"
        out_csv = self.scratch / f"{name}_{tag}.csv"
        for p in (out_json, out_csv):
            p.unlink(missing_ok=True)
        argv = self.commands[name] + ["--json", str(out_json)]
        if name == "flow":
            argv += ["--csv", str(out_csv)]

        def invoke():
            proc = subprocess.run(sigma2_argv(argv), env=child_env(self.src),
                                  capture_output=True, text=True, timeout=150)
            return proc.returncode

        if self.tracer is not None:
            invoke = self.tracer.wrap(invoke, f"cli.{name}")
        op, code = rd.call(f"{name}_{tag}", invoke)
        summary = out_json.read_bytes() if out_json.exists() else b""
        trace = out_csv.read_bytes() if out_csv.exists() else b""
        return op, code, summary, trace

    def run_round(self) -> list[OpResult]:
        rd = _Round()
        for name in self.commands:
            first = None
            for tag in ("a", "b"):
                op, code, summary, trace = self._run(rd, name, tag)
                if op.outcome != "ok":
                    continue
                expected = 3 if name == "cone_exit" else 0
                if code != expected:
                    op.outcome, op.problems = "failed", [f"exit {code}, expected {expected}"]
                    continue
                try:
                    doc = checks.strict_json(summary.decode())
                except ValueError as e:
                    op.outcome, op.problems = "failed", [f"summary is not JSON: {e}"]
                    continue
                bad = self._check(name, doc, trace)
                if first is not None:
                    bad += checks.check_reruns(first, summary + trace)
                first = summary + trace
                rd.judge(op, bad)
        return rd.ops

    def _check(self, name: str, doc: dict, trace: bytes) -> list[str]:
        if name == "cone_exit":
            return [] if doc.get("status") == "cone_exit" else [
                f"status {doc.get('status')}, expected cone_exit"]
        if name == "eigen":
            return checks.check_eigen(9, doc["lambda1"], doc["status"])
        bad = []
        if name == "verify":
            n = 5
            if doc["status"] != "ok":
                bad.append(f"verify status {doc['status']}")
            if not doc["sigma2_consistency"] < 1e-10:
                bad.append(f"sigma2_consistency {doc['sigma2_consistency']:.3e}")
            if not doc["refinement_gain"] >= 3.0:
                bad.append(f"divergence refinement gain {doc['refinement_gain']:.3f} < 3")
            if doc["round_sigma2"] != n * (n - 1) / 8.0:
                bad.append(f"round sigma_2 {doc['round_sigma2']!r}")
            if not checks.rel_err(doc["B"], checks.bubble_b(n)) <= 1e-8:
                bad.append(f"B {doc['B']!r}, vol(S^5)/2^5 = {checks.bubble_b(n)!r}")
            if not checks.rel_err(doc["Y2_sphere"], checks.round_y2(n)) <= 1e-8:
                bad.append(f"Y2 {doc['Y2_sphere']!r}, oracle {checks.round_y2(n)!r}")
        elif name == "construct":
            n, beta, lam = self.n_construct, self.construct_beta, self.construct_lam
            if doc["status"] != "ok":
                bad.append(f"construct status {doc['status']}")
            if not checks.rel_err(doc["Y2_sphere"], checks.round_y2(n)) <= 1e-8:
                bad.append(f"Y2 {doc['Y2_sphere']!r}, oracle {checks.round_y2(n)!r}")
            if not checks.rel_err(doc["lambda2_target"], checks.k2_target(n, -1.0)) <= 1e-7:
                bad.append(f"lambda2_target {doc['lambda2_target']!r}")
            if not checks.rel_err(doc["delta"], lam ** beta) <= 1e-12:
                bad.append(f"delta {doc['delta']!r}, lam^beta = {lam ** beta!r}")
            if doc["beta_in_proof_range"] != (0.25 < beta < (n - 4.0) / (2.0 * n)):
                bad.append("beta_in_proof_range is wrong")
        elif name == "sweep":
            if doc["status"] != "ok" or not doc["all_margins_positive"]:
                bad.append(f"sweep status {doc['status']}, margins {doc['margins']}")
            if not checks.rel_err(doc["K2_target"], checks.k2_target(9, -1.0)) <= 1e-7:
                bad.append(f"K2_target {doc['K2_target']!r}")
            bad += checks.check_sweep(9, doc["margins"], doc["K2_fit"], -1.0)
        elif name == "flow":
            bad += self._check_flow(doc, trace)
        return bad

    @staticmethod
    def _check_flow(doc: dict, trace: bytes) -> list[str]:
        bad, table = checks.check_csv(trace.decode())
        if bad:
            return bad
        if doc["status"] != "t_max" or doc["t"] != 1.0:
            bad.append(f"flow ended with status {doc['status']} at t = {doc['t']!r}")
        if table.shape[0] != 21 or not np.allclose(table[:, 0], 0.05 * np.arange(21),
                                                   rtol=0.0, atol=1e-12):
            bad.append("CSV records are not on the record_dt grid")
        f2 = table[:, 1]
        if not np.all(np.diff(f2) <= 1e-10 * np.abs(f2[:-1])):
            bad.append("F2 increases between records")
        v = table[:, 2]
        if not np.max(np.abs(v - v[0])) / v[0] <= 1e-6:
            bad.append("V_eps drifts by more than 1e-6")
        if table[-1, 1] != doc["F2"]:
            bad.append("summary F2 differs from the last CSV record")
        return bad

