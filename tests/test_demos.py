"""Every numbered demo runs clean and every exported name resolves, so a
removed name cannot leave either broken."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import timekge

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("demo", [
    "01_pooling_and_gradcheck.py", "02_dataset_pipeline.py", "03_time_cycles.py",
    "04_scoring_variants.py", "05_train_and_evaluate.py", "06_count_exports.py",
])
def test_demo_exits_cleanly(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    missing = [name for name in timekge.__all__ if not hasattr(timekge, name)]
    assert not missing
    done = subprocess.run([sys.executable, "-c", "from timekge import *"], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
