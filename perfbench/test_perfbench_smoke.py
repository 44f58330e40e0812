"""Output schema of the benchmark, checked in its seconds-long smoke mode.

The smoke mode runs every workload's job at a tiny size on the bundled
synthetic dataset. No timing is asserted: only that the last line is the
result object, that every declared metric is present with its unit, and
that no operation failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(trace, section):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    for metric in SPEC[section]:
        if metric["name"] in ("setup_s", "us_per_op", "peak_rss_mb"):
            for w in SPEC["workloads"]:
                assert result["metrics"][f"{w['name']}/{metric['name']}"]["value"] > 0
