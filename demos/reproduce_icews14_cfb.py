#!/usr/bin/env python3
"""Full-scale ICEWS14 reproduction run for the chained (cfb) variant.

Trains at the published operating point: embedding dimension 300,
rank 32, Adam at lr 0.01 with 0.99 per-epoch decay, batch size 1000,
label smoothing 0.01, dropout 0.1/0.2, simple time encoding, 200 epochs.
A successful full run is expected to land filtered test MRR in the
vicinity of 0.62 (+/- 0.03). It takes about 56 hours on 2 CPU cores
(measured on perfbench's seed-0 ICEWS14-shaped data, 140 batches of 1000
keys per epoch: 7.2 s wall and 13.0-13.3 s CPU per step, 200 epochs; on a
2-vCPU Intel Xeon with OpenBLAS 0.3.31 on 2 threads, numpy 2.4, Python
3.11; peak RSS 3.5 GB, 0.9 GB after set-up), so it is NOT part of the test
suite.

Place the dataset at data/icews14 (tab-separated train/valid/test files
of ``subject  predicate  object  YYYY-MM-DD`` lines), or point
TIMEKGE_DATA_DIR at a directory containing icews14/.

Usage:
    python demos/reproduce_icews14_cfb.py [--epochs N] [--out DIR]

``timekge train`` refuses an ``--out`` that is a non-empty directory, so
a second run needs a new ``--out`` (default ``runs/icews14-cfb``).
"""

import argparse
import os
import sys
from pathlib import Path

from timekge.cli import main as cli_main


def find_dataset() -> Path:
    root = Path(os.environ.get("TIMEKGE_DATA_DIR",
                               Path(__file__).resolve().parents[1] / "data"))
    directory = root / "icews14"
    if not directory.is_dir():
        sys.exit(
            f"ICEWS14 not found at {directory}.\n"
            "Download the quadruple files (train/valid/test) and place them "
            "there, or set TIMEKGE_DATA_DIR.")
    return directory


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--out", default="runs/icews14-cfb")
    args = parser.parse_args()
    dataset = find_dataset()
    return cli_main([
        "train",
        "--dataset", str(dataset),
        "--out", args.out,
        "--variant", "cfb",
        "--encoder", "ste",
        "--dim-entity", "300",
        "--rank", "32",
        "--lr", "0.01",
        "--decay", "0.99",
        "--batch-size", "1000",
        "--label-smoothing", "0.01",
        "--epochs", str(args.epochs),
        "--seed", "0",
        "--eval-interval", "10",
        "--checkpoint-policy", "best",
    ])


if __name__ == "__main__":
    sys.exit(main())
