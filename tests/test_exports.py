"""Every name a module exports resolves, and so does every module attribute
that the benchmark scripts under ``perfbench/`` read."""

import ast
import importlib
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
