"""The demos run to completion, each in a fresh interpreter as a reader
would start it. The USPS demo needs a data download and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["label_ranking", "molecule_fingerprints",
                                  "supervised_benefit", "multilabel_tags"])
def test_demo_exits_zero(tmp_path, name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
