"""``tools/seeded_digests.py`` lists every seeded artifact of the nine
variant/encoder pairs, the dataset commands' outputs, the load of a dataset
of several line blocks and the scale runs at two BLAS thread counts, so
diffing its output for two trees covers them all."""

import re
import subprocess
import sys
from pathlib import Path

from timekge.time_encoding import COMPONENTS

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ["lowfer-ste", "t-ste", "t-cte", "tnt-ste", "tnt-cte", "cfb-ste", "cfb-cte",
         "ftp-ste", "ftp-cte"]
# the checkpoint policy cycles best, every 2 and last over 3-epoch runs
CHECKPOINTS = ["checkpoint-best", "checkpoint-epoch-1", "checkpoint-last"]
DATA = ["stats.stdout", "encode-time.stdout", "heatmap-rate1.csv", "concentration-rate1.csv",
        "heatmap-rate3.csv", "concentration-rate3.csv", "heatmap-rate4.csv",
        "concentration-rate4.csv", "blocks/stats.stdout", "blocks/vocab/entities",
        "blocks/vocab/relations", "blocks/vocab/timestamps", "blocks/train", "blocks/valid",
        "blocks/test"]
SCALE = ["scale-threads1", "scale-threads2"]
SCALE_TENSORS = {"tnt-ste": ["entity", "relation", "subject_proj", "relation_proj",
                             "relation_static", "time"],
                 "cfb-cte": ["entity", "relation", "subject_proj", "relation_proj", "time_proj",
                             "chain_proj", *(f"time_{c}" for c in COMPONENTS)]}


def test_lists_every_pair_and_artifact():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "seeded_digests.py"),
                           "--src", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    files = {}
    for line in done.stdout.splitlines():
        pair, name, digest = line.split(" ")
        if "/loss-epoch-" in name:  # a loss is printed whole, as a hex float
            assert float.fromhex(digest) > 0, line
        else:
            assert re.fullmatch(r"[0-9a-f]{64}", digest), line
        files.setdefault(pair, []).append(name)
    assert list(files) == [*PAIRS, "data", *SCALE]
    assert files["data"] == DATA
    for group in SCALE:
        assert files[group] == [
            f"{pair}/{name}" for pair, tensors in SCALE_TENSORS.items()
            for name in ["loss-epoch-0", "loss-epoch-1",
                         *(f"{kind}/{t}" for kind in ("param", "m", "v") for t in tensors),
                         "encode-3200", "evaluate-filtered.json", "evaluate-raw.json"]]
    for pair, checkpoint in zip(PAIRS, CHECKPOINTS * 3):
        names = files[pair]
        assert len(names) == len(set(names))
        tensors = {n for n in names if n.endswith(".bin")}
        assert tensors and all(n.startswith(checkpoint + "/") for n in tensors)
        assert set(names) - tensors == {
            "train.stdout", "config.json", "history.jsonl", "metrics.json",
            f"{checkpoint}/manifest.json", f"{checkpoint}/evaluate-filtered.stdout",
            f"{checkpoint}/evaluate-raw.stdout"}
