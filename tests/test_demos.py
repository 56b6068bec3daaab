"""The demos run to completion, each in a fresh interpreter as a reader
would start it. The USPS demo needs a data download and is left out of the
runs; every demo, that one included, reads only names okr still has."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", ["label_ranking", "molecule_fingerprints",
                                  "supervised_benefit", "multilabel_tags"])
def test_demo_exits_zero(tmp_path, name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _member(owner, name: str):
    """owner.name, importing it when it is a submodule of the package owner."""
    if hasattr(owner, "__path__"):
        try:
            return importlib.import_module(f"{owner.__name__}.{name}")
        except ModuleNotFoundError:
            pass
    return getattr(owner, name)


def _okr_reads(tree):
    """(line, dotted name) of every name a module's source imports from okr or
    reads as an attribute of an okr module it imported."""
    modules = {}                       # local name -> dotted okr module name
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "okr":
                    modules[alias.asname or "okr"] = alias.name if alias.asname else "okr"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "okr":
            for alias in node.names:
                reads.append((node.lineno, f"{node.module}.{alias.name}"))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return reads


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_reads_only_existing_api(path):
    missing = []
    for line, dotted in _okr_reads(ast.parse(path.read_text(encoding="utf-8"))):
        owner, *parts = dotted.split(".")
        obj = importlib.import_module(owner)
        try:
            for part in parts:
                obj = _member(obj, part)
        except AttributeError:
            missing.append(f"{path.name}:{line}: {dotted}")
    assert not missing, missing
