"""Spans around calls into the program's layers, and the per-layer probes.

A traced run swaps every public function of the six layer modules, in every
namespace of the package that holds it, for a wrapper that records a span:
name, start, end and the span that was open when it began.  Calls that one
layer makes into another are therefore seen from outside the program, with
no change to it.  Spans stay in memory and are written when the run ends.

The probes time single calls into each layer's public functions on fixed
inputs, the same in every workload and for every seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "flow", "symfun", "geometry", "discretize", "testmetric")


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.flow_runs: list[tuple[int, int, float]] = []   # (evals, steps, t)

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if name == "flow.flow_run":
                self.flow_runs.append((result.evaluations, result.steps, result.t))
            return result

        return traced

    @contextmanager
    def instrumented(self):
        """Wrap the public functions of every layer for the duration."""
        modules = [importlib.import_module(f"sigma2flow.{m}") for m in LAYERS]
        modules.append(importlib.import_module("sigma2flow"))
        owners = {f"sigma2flow.{m}" for m in LAYERS}
        wrapped: dict[int, object] = {}
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in owners:
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span durations less their child spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for (name, t0, t1, _), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - inner
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p}
                for n, t0, t1, p in self.spans]


def span_cost_us(repeats: int = 20000) -> float:
    """Added cost of one span, from a wrapped no-op against the bare one."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "probe.noop")
    best = []
    for fn in (noop, traced):
        passes = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(repeats):
                fn()
            passes.append(time.perf_counter() - t0)
        best.append(min(passes))
    return 1e6 * (best[1] - best[0]) / repeats


# ---------------------------------------------------------------------------
# probes

def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean wall time of one call, in seconds."""
    fn()
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _criterion1_matrices(count: int):
    """The random symmetric matrices of acceptance criterion 1."""
    rng = np.random.default_rng(20260815)
    mats = []
    for _ in range(count):
        m = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = q @ np.diag(rng.standard_normal(m)) @ q.T
        mats.append(0.5 * (a + a.T))
    return mats


def _wall(argv, env, repeats: int) -> float:
    """Median wall time of a child process; it must exit 0."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=150)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


#: fixed arguments of the cli probes, one process each
CLI_PROBES = {
    "verify": ["verify", "--trials", "1000"],
    "construct": ["construct"],
    "sweep": ["sweep"],
    "flow": ["flow", "--grid-points", "96", "--t-max", "1.0", "--tol-converge", "0",
             "--record-dt", "0.05"],
    "eigen": ["eigen", "--n", "9", "--grid-points", "48"],
}


def probe_layers(src: Path, scratch: Path) -> dict[str, tuple[float, str]]:
    """Time each layer's public functions on fixed inputs."""
    from sigma2flow import discretize, flow, geometry, symfun, testmetric
    import workloads

    m: dict[str, tuple[float, str]] = {}

    # flow: one kernel evaluation and one RKC step per grid size
    sphere = geometry.RoundSphere(5)
    for points, suffix in ((256, ""), (128, ".n128"), (512, ".n512")):
        grid = discretize.sphere_latitude(5, points)
        fld = geometry.ConformalField(grid, 0.1 * np.cos(grid.x))
        m["flow.velocity_us" + suffix] = (1e6 * _per_call(
            lambda: flow.velocity(sphere, fld, 2.0), 100), "us")
        # step from where the error controller has grown dt past the first,
        # explicit step, so the stage count is that of a running flow
        state = flow.flow_state(sphere, fld, 2.0)
        for _ in range(30):
            state = flow.step(state)
        m["flow.step_us" + suffix] = (1e6 * _per_call(lambda: flow.step(state), 20), "us")

    # flow: one eigen_solve to convergence (criterion 5's S^5 cosine start)
    grid = discretize.sphere_latitude(5, 128)
    u0 = flow.initial_field("cosine", grid, 0.1)
    tracer = Tracer()
    with tracer.instrumented():
        flow.eigen_solve(sphere, u0)
    evals = sum(e for e, _, _ in tracer.flow_runs)
    driver = tracer.self_times()["flow"]
    m["flow.evals"] = (evals, "count")
    m["flow.steps"] = (sum(s for _, s, _ in tracer.flow_runs), "count")
    m["flow.evals_per_t"] = (evals / sum(t for _, _, t in tracer.flow_runs), "1/t")
    m["flow.driver_s"] = (driver, "s")
    m["flow.us_per_eval"] = (1e6 * driver / evals, "us")

    # symfun: per call, over the matrices of criterion 1
    mats = _criterion1_matrices(300)
    for key, fn in (("jacobi_us", symfun.jacobi_eigenvalues),
                    ("sigma_k_us", lambda a: symfun.sigma_k(a, 2)),
                    ("minors_us", lambda a: symfun.sigma_k_minors(a, 2))):
        m["symfun." + key] = (1e6 * _per_call(lambda: [fn(a) for a in mats], 1, 3)
                              / len(mats), "us")

    # geometry and discretize
    grid = discretize.sphere_latitude(5, 256)
    u = 0.1 * np.cos(grid.x)
    m["geometry.schouten_us"] = (1e6 * _per_call(
        lambda: geometry.schouten_fields(grid, sphere, u), 50), "us")
    grid200 = discretize.sphere_latitude(5, 200)
    m["geometry.divergence_ms"] = (1e3 * _per_call(
        lambda: geometry.divergence_identity_residual(
            grid200, sphere, 0.2 * np.cos(grid200.x)), 5), "ms")
    m["discretize.stencil_ms"] = (1e3 * _per_call(
        lambda: (discretize.stencil_tables(grid, 1), discretize.stencil_tables(grid, 2)),
        2), "ms")

    # testmetric: cold sphere_constants on dimensions no workload uses
    cold = []
    for n in range(20, 25):
        t0 = time.perf_counter()
        testmetric.sphere_constants(n)
        cold.append(time.perf_counter() - t0)
    m["testmetric.constants_ms"] = (1e3 * statistics.median(cold), "ms")
    bp = testmetric.BubbleParams(9, 1e-4)
    m["testmetric.glue_ms"] = (1e3 * _per_call(
        lambda: testmetric.glue_lemma6(bp, 1.5), 1, 5), "ms")
    m["testmetric.assemble_ms"] = (1e3 * _per_call(
        lambda: testmetric.assemble_and_compare(bp, 1.5), 1, 3), "ms")
    m["testmetric.sweep_s"] = (_per_call(testmetric.margin_sweep, 1, 2), "s")

    # cli: interpreter start, package import, one process per command
    env = workloads.child_env(src)
    start = _wall([sys.executable, "-c", "pass"], env, 5)
    m["cli.start_s"] = (start, "s")
    m["cli.import_s"] = (_wall([sys.executable, "-c", "import sigma2flow"], env, 3)
                         - start, "s")
    for name, args in CLI_PROBES.items():
        argv = workloads.sigma2_argv(args + ["--json", str(scratch / f"probe_{name}.json")])
        if name == "flow":
            argv += ["--csv", str(scratch / "probe_flow.csv")]
        m[f"cli.{name}_s"] = (_wall(argv, env, 1), "s")
    return m
