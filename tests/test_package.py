"""Every exported name resolves and has a caller; no module imports networkx; every
console script resolves; the pytest configuration survives a failing property test."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import esgnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(esgnn.__path__, "esgnn."))
# names that an attribute read counts as a caller on: ``gin.build_graph_batch``
# calls it, ``x.reshape`` does not call ``autodiff.reshape``
MODULE_NAMES = {"esgnn", *(name.rpartition(".")[2] for name in MODULES)}
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# program code whose references count as callers; tests do not
CALLER_FILES = [*(ROOT / "src" / "esgnn").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

# exported names with no caller in the program yet, and why they stay
UNCALLED_EXPORTS = {
    "matmul": "test oracle for linear; perfbench/tracing.py patches it by name",
    "spmm": "test oracle for the fused GIN layer; perfbench/tracing.py patches it by name",
    "relu": "test oracle; patched by name by perfbench",
    "gather_rows": "test oracle; patched by name by perfbench",
    "concat_cols": "test oracle; patched by name by perfbench",
    "segment_sum": "test oracle; patched by name by perfbench",
    "save_params": "checkpoints for the planned run records and CLI",
    "load_params": "checkpoints for the planned run records and CLI",
    "policy_edge_deleted": "ED baseline for the planned bag classifier",
    "policy_node_deleted": "ND baseline for the planned bag classifier",
    "sample_bag": "equal-size bag baselines for the planned bag classifier",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_module_imports_networkx():
    # a fresh interpreter, since this one's tests and oracles import networkx
    code = f"import sys\nfor m in {MODULES!r}:\n    __import__(m)\nprint('networkx' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def referenced_names(path: Path) -> set[str]:
    """Names loaded, or read as attributes of an esgnn module, except inside the
    statement that defines them."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            defined = set()
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULE_NAMES
            ):
                used.add(node.attr)
        names |= used - defined
    return names


def test_every_exported_name_has_a_caller():
    referenced = set().union(*(referenced_names(p) for p in CALLER_FILES))
    exported = {n for m in MODULES for n in getattr(importlib.import_module(m), "__all__", ())}
    assert sorted(exported - referenced - UNCALLED_EXPORTS.keys()) == []
    assert sorted(UNCALLED_EXPORTS.keys() & referenced) == []
    assert sorted(UNCALLED_EXPORTS.keys() - exported) == []


def test_project_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    doc = tomllib.loads(PYPROJECT.read_text())
    for script, target in doc["project"].get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script} -> {target} is not callable"


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
