"""The benchmark scripts under perfbench/ import names from fuzzylink; a
name removed from src/ must fail here, not only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _fuzzylink_imports():
    """(script, module, name) for each name imported from fuzzylink; name is
    None for a plain ``import fuzzylink...``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fuzzylink":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fuzzylink":
                        yield path.name, alias.name, None


def test_perfbench_imports_resolve():
    found = list(_fuzzylink_imports())
    assert {script for script, _, _ in found} >= {"replay.py", "workloads.py", "run.py"}
    missing = [f"{script}: {module}.{name}" for script, module, name in found
               if name is not None and not hasattr(importlib.import_module(module), name)]
    assert missing == []
