"""Every numbered demo runs clean, so a removed name cannot leave one broken."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_kernels_and_gradcheck.py", "02_dataset_pipeline.py", "03_time_cycles.py",
    "04_scoring_variants.py", "05_train_and_evaluate.py", "06_count_exports.py",
])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
