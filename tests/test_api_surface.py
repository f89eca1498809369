"""Every name a package exports in __all__ must resolve, and every import sits at module top."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "healflow").rglob("*.py"))


@pytest.mark.parametrize("module", ["healflow.nodes"])
def test_every_exported_name_resolves(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if name not in namespace] == []


def _nested_imports(tree):
    """Line numbers of imports below module level, bar an `if TYPE_CHECKING:` block."""
    for top in tree.body:
        if isinstance(top, ast.If) and getattr(top.test, "id", None) == "TYPE_CHECKING":
            continue
        for node in ast.walk(top):
            if node is not top and isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node.lineno


def test_every_import_sits_at_module_top():
    found = [f"{path.relative_to(SRC)}:{lineno}"
             for path in sorted((SRC / "healflow").rglob("*.py"))
             for lineno in _nested_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    result = subprocess.run([sys.executable, "-W", "error", "-c", f"import {module}"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
