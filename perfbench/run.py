#!/usr/bin/env python3
"""The sigma2flow benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload relax --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: ``relax`` (eigen, pair and continuation runs in one
process), ``construct`` (the comparison-metric quadrature in one process)
and ``cli`` (one ``sigma2`` process per command).  A run sets up several
times in fresh interpreters (``setup_s`` is their median), then runs whole
rounds of the workload's operations until the next round would overrun
``--seconds`` (at least one round), checking every output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead: the layer probes plus the workload's spans.  The
last line of standard output is one JSON object; the full result, and in a
traced run the spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("relax", "construct", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (timed by the parent)")
    return p.parse_args(argv)


def make_workload(name: str, seed: int, scratch: Path, tracer=None):
    import workloads

    if name == "cli":
        return workloads.Cli(seed, SRC, scratch, tracer)
    return (workloads.Relax if name == "relax" else workloads.Construct)(seed)


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the inputs."""
    import workloads

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=workloads.child_env(SRC), check=True,
                       capture_output=True, timeout=150)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list[float]):
    """The highest whole percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 40:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    ranked = sorted(samples)
    return p, ranked[max(0, math.ceil(p / 100.0 * n) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rounds(work, budget: float):
    """Whole rounds until the next one would end after ``budget`` seconds."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = work.run_round()
        rounds.append((time.perf_counter() - t0, ops))
        elapsed = time.perf_counter() - t_start
        if elapsed + rounds[-1][0] > budget:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sigma2flow" / "__init__.py").is_file():
        print(f"run.py: no sigma2flow package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    if args.setup_only:
        make_workload(args.workload, args.seed, OUT)
        return 0

    import tracing

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}-{args.seed}"
    scratch.mkdir(exist_ok=True)
    try:
        setups = measure_setup(args)
        layer_metrics = {}
        budget = args.seconds
        tracer = None
        if args.trace:
            t0 = time.perf_counter()
            layer_metrics = tracing.probe_layers(SRC, scratch)
            budget = max(0.0, budget - (time.perf_counter() - t0))
            tracer = tracing.Tracer()
        work = make_workload(args.workload, args.seed, scratch, tracer)
        if tracer is not None:
            with tracer.instrumented():
                rounds = run_rounds(work, budget)
        else:
            rounds = run_rounds(work, budget)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for _, round_ops in rounds for op in round_ops]
    attempted = len(ops)
    failed = sum(op.outcome == "failed" for op in ops)
    wrong = [op for op in ops if op.outcome == "wrong"]
    per_round_wall = [sum(op.wall for op in r) for _, r in rounds]
    per_round_cpu = [sum(op.cpu for op in r) for _, r in rounds]

    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(per_round_wall), "s"),
        "op_p50_s": (statistics.median(op.wall for op in ops), "s"),
        "cpu_s": (statistics.median(per_round_cpu), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if tracer is not None:
        span_cost = tracing.span_cost_us()
        nr = len(rounds)
        layer_metrics["trace.wall_s"] = end_to_end["wall_s"]
        layer_metrics["trace.spans"] = (len(tracer.spans) / nr, "count")
        layer_metrics["trace.span_cost_us"] = (span_cost, "us")
        self_times = {k: v / nr for k, v in tracer.self_times().items()}
        flow_runs = tracer.flow_runs
    metrics = layer_metrics if args.trace else end_to_end

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"rounds {len(rounds)}  operations {attempted}  failed {failed}  "
             f"wrong {len(wrong)}"]
    for name, (value, unit) in end_to_end.items():
        lines.append(f"  {name:<24} {value:>14.6g} {unit}")
    t = tail([op.wall for op in ops])
    if t is not None:
        lines.append(f"  op_p{t[0]}_s{'':<18} {t[1]:>14.6g} s   ({attempted} samples)")
    if tracer is not None:
        lines.append("per layer:")
        for name, (value, unit) in layer_metrics.items():
            lines.append(f"  {name:<24} {value:>14.6g} {unit}")
        lines.append("self time per round in this workload's spans:")
        for layer, sec in self_times.items():
            lines.append(f"  {layer:<24} {sec:>14.6g} s")
        lines.append(f"  {'(benchmark, outside spans)':<24} "
                     f"{sum(per_round_wall) / nr - sum(self_times.values()):>14.6g} s")
        if flow_runs:
            lines.append(f"  flow runs per round: evaluations "
                         f"{sum(e for e, _, _ in flow_runs) // nr}, steps "
                         f"{sum(s for _, s, _ in flow_runs) // nr}")
        lines.append(f"  tracing overhead, estimated: "
                     f"{len(tracer.spans) * span_cost * 1e-6 / nr:.4g} s per round")
    for op in ops:
        if op.outcome != "ok":
            lines.append(f"  {op.outcome}: {op.name}: {'; '.join(op.problems)}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, setup_runs=setups, rounds=[
        [{"name": op.name, "wall": op.wall, "cpu": op.cpu, "outcome": op.outcome,
          "problems": op.problems} for op in r] for _, r in rounds])
    if tracer is not None:
        detail["self_time_per_round"] = self_times
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()))
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))

    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
