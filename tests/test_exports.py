"""Every name a module exports resolves, and so does every module attribute
that the benchmark scripts under ``perfbench/`` read; the package itself
exports only its version; the CLI writes its output in one place."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

_MODULES = ("discretize", "flow", "geometry", "symfun", "testmetric")
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["sigma2flow", *(f"sigma2flow.{m}" for m in _MODULES)])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_benchmark_reads_only_names_that_exist():
    # an AST scan over ``module.name`` in every benchmark script, so that a
    # deleted name fails here and not only when the benchmark runs
    reads = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in _MODULES):
                reads.add((node.value.id, node.attr))
    assert ("flow", "step") in reads and ("testmetric", "glue_lemma6") in reads
    missing = sorted(f"{module}.{attr}" for module, attr in reads
                     if not hasattr(importlib.import_module(f"sigma2flow.{module}"), attr))
    assert missing == []


def test_package_import_loads_no_module():
    # the package holds no names but its version: a fresh interpreter's
    # ``import sigma2flow`` loads neither numpy nor any of its modules
    env = dict(os.environ)
    package = importlib.import_module("sigma2flow")
    env["PYTHONPATH"] = str(Path(package.__file__).parents[1]) + os.pathsep + env.get(
        "PYTHONPATH", "")
    script = ("import sys, sigma2flow; print(sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'numpy' or m.startswith('sigma2flow.')))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_output_has_one_path():
    # an AST scan of cli.py: only the dispatcher writes a summary or a trace,
    # and each command's handler takes its options alone, so no command can
    # grow an output path of its own
    cli = importlib.import_module("sigma2flow.cli")
    tree = ast.parse(Path(cli.__file__).read_text(), cli.__file__)
    writers = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("emit_summary", "write_monitor_csv")):
                    writers.setdefault(node.func.id, set()).add(func.name)
    assert writers == {"emit_summary": {"parse_and_dispatch"},
                       "write_monitor_csv": {"parse_and_dispatch"}}
    arities = {name: len(inspect.signature(handler).parameters)
               for name, (_, handler, _) in cli._COMMANDS.items()}
    assert arities == dict.fromkeys(cli._COMMANDS, 1)
