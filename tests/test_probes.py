"""The benchmark's per-layer probes run on the current code.

A traced benchmark run calls ``probe_layers`` before its workload, and the
probe's CLI commands must each exit 0, so a command that no longer does
fails here and not only in a traced run.
"""

import math
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_probe_layers_report_every_metric_finite(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    import tracing

    metrics = tracing.probe_layers(_ROOT / "src", tmp_path)
    assert len(metrics) == 28
    assert {name: value for name, (value, _) in metrics.items()
            if not math.isfinite(value)} == {}
