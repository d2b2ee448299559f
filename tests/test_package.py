"""Every exported name and every declared console script resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import esgnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(esgnn.__path__, "esgnn."))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_project_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    doc = tomllib.loads(PYPROJECT.read_text())
    for script, target in doc["project"].get("scripts", {}).items():
        module_name, _, attr = target.partition(":")
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script} -> {target} is not callable"
