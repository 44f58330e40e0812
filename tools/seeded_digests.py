#!/usr/bin/env python3
"""Print SHA-256 digests of every seeded output of ``timekge train``/``evaluate``
and of the dataset commands ``stats``, ``encode-time`` and ``heatmap``.

Usage::

    python3 tools/seeded_digests.py --src src > head.txt
    python3 tools/seeded_digests.py --src ../base/src > base.txt
    diff base.txt head.txt

With ``--src DIR`` the work runs in one child process with
``PYTHONPATH=DIR``, so each tree is digested by its own ``timekge``;
without it, the ``timekge`` already importable is used. On the bundled
synthetic dataset it trains the nine variant/encoder pairs (lowfer-ste, and
t, tnt, cfb and ftp with both ste and cte) at d=16, k=2 (ftp k=1), 3
epochs, batch 64, seed 7, evaluating every epoch, with the checkpoint
policy cycling best, every 2 and last across the pairs. It then runs
``timekge evaluate`` on each saved checkpoint, filtered and raw, and
prints one ``pair file sha256`` line per artifact: every file the run
wrote, its stdout and each evaluation's stdout. ``history.jsonl`` is
hashed without ``seconds`` and ``config.json`` without ``out`` and
``dataset``, the only fields that differ between repeats or trees.
Lines of the group ``data`` then digest, on the same dataset, the stdout
of ``timekge stats`` and ``timekge encode-time --dataset``, and both CSV
files of ``timekge heatmap --concentration`` at time rates 1, 3 and 4;
3 does not divide the dataset's 20 days, so its last bucket is short.
Its ``blocks/`` lines load a seeded dataset whose train file spans more
than 3 of the loader's line blocks, with a CRLF ending, a blank line and
padded fields at every block edge, and print the stdout of ``timekge
stats``, the vocabulary hashes and the SHA-256 of each split's index array.

The groups ``scale-threads1`` and ``scale-threads2`` run at shapes where
the batched paths cross their edges, which the shapes above never reach:
on a seeded in-process dataset (600 entities, 5 relations, 12 days) they
train tnt-ste and cfb-cte at d=32, k=16, batch 200 for 2 epochs of 3
steps, so each batch's logits span 4 loss chunks and each B x (k*d)
product 4 row blocks, and then rank 1,600 test queries, 4 ranking chunks,
filtered and raw. They print each epoch's loss as a hex float and the
SHA-256 of every parameter, Adam moment and metrics record, and of the
trained encoder's ``encode_batch`` over 3,200 timestamp indices taken
cyclically, which spans 3 or more of its row blocks for both encoders.
Each group runs in its own child process under ``OPENBLAS_NUM_THREADS`` 1
or 2, because a dgemm can round differently on another thread count;
compare trees at equal counts only.

Equal output for two trees means their seeded outputs are byte-identical.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = [("lowfer", "ste")] + [(variant, encoder) for variant in ("t", "tnt", "cfb", "ftp")
                               for encoder in ("ste", "cte")]
POLICIES = [["best"], ["every", "--checkpoint-every", "2"], ["last"]]
HEATMAP_RATES = (1, 3, 4)
SCALE_PAIRS = [("tnt", "ste"), ("cfb", "cte")]
SCALE_THREADS = (1, 2)
# parse_quadruples splits a file's kept lines this many at a time
BLOCK_LINES = 4096
# 3+ of encode_batch's row blocks for both encoders at d=32; no batch or
# ranking chunk of the scale runs encodes that many timestamps at once
ENCODE_ROWS = 3200


def _cli(argv: list[str]) -> bytes:
    """Stdout of one in-process ``timekge`` command, which must exit 0."""
    # imported here: with ``--src`` only the child process imports timekge
    from timekge.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"timekge {' '.join(argv)} exited {code}")
    return buffer.getvalue().encode("utf-8")


def _canonical(path: Path) -> bytes:
    """The file's bytes, less the fields that differ between repeats or trees."""
    if path.name == "history.jsonl":
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return "".join(json.dumps({k: v for k, v in r.items() if k != "seconds"},
                                  sort_keys=True) + "\n" for r in records).encode("utf-8")
    if path.name == "config.json":
        config = json.loads(path.read_text(encoding="utf-8"))
        kept = {k: v for k, v in config.items() if k not in ("out", "dataset")}
        return (json.dumps(kept, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return path.read_bytes()


def digest_pair(index: int, variant: str, encoder: str, dataset: str,
                work: Path) -> list[tuple[str, bytes]]:
    """Train and evaluate one pair; returns its artifacts as (name, bytes)."""
    out = work / f"{variant}-{encoder}"
    policy = POLICIES[index % len(POLICIES)]
    artifacts = [("train.stdout", _cli([
        "train", "--dataset", dataset, "--out", str(out), "--variant", variant,
        "--encoder", encoder, "--dim-entity", "16", "--rank", "1" if variant == "ftp" else "2",
        "--epochs", "3", "--batch-size", "64", "--seed", "7", "--eval-interval", "1",
        "--checkpoint-policy", *policy]))]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        artifacts.append((path.relative_to(out).as_posix(), _canonical(path)))
    for checkpoint in sorted(p for p in out.iterdir() if p.name.startswith("checkpoint-")):
        for mode in ("filtered", "raw"):
            artifacts.append((f"{checkpoint.name}/evaluate-{mode}.stdout", _cli([
                "evaluate", "--checkpoint", str(checkpoint), "--dataset", dataset,
                "--mode", mode])))
    return artifacts


def digest_data(dataset: str, work: Path) -> list[tuple[str, bytes]]:
    """Outputs of the commands that read only the dataset, as (name, bytes)."""
    artifacts = [("stats.stdout", _cli(["stats", "--dataset", dataset])),
                 ("encode-time.stdout", _cli(["encode-time", "--dataset", dataset]))]
    for rate in HEATMAP_RATES:
        heatmap = work / f"heatmap-rate{rate}.csv"
        concentration = work / f"concentration-rate{rate}.csv"
        _cli(["heatmap", "--dataset", dataset, "--out", str(heatmap),
              "--concentration", str(concentration), "--time-rate", str(rate)])
        artifacts += [(path.name, path.read_bytes()) for path in (heatmap, concentration)]
    return artifacts


def write_block_edge_dataset(directory: Path) -> None:
    """A seeded dataset of 2,000 entities, 12 relations and 365 days whose
    train file spans 4 line blocks and part of a fifth; the first and last
    line of each block end in CRLF beside a blank line, with padded fields."""
    import datetime as dt

    import numpy as np

    rng = np.random.default_rng(5)
    days = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(365)]
    directory.mkdir()
    for name, n in (("train", 4 * BLOCK_LINES + 300), ("valid", BLOCK_LINES + 50),
                    ("test", BLOCK_LINES + 50)):
        s, o = rng.integers(0, 2000, (2, n))
        p, t = rng.integers(0, 12, n), rng.integers(0, 365, n)
        lines = []
        for row, fact in enumerate(zip(s, p, o, t)):
            fields = [f"entity {fact[0]}", f"relation {fact[1]}", f"entity {fact[2]}",
                      days[fact[3]].isoformat()]
            if row % BLOCK_LINES == 0:
                lines += [" \r\n", "\t".join(f" {f}  " for f in fields) + "\r\n"]
            elif row % BLOCK_LINES == BLOCK_LINES - 1:
                lines += ["\t".join(f"{f} " for f in fields) + "\r\n", "\r\n"]
            else:
                lines.append("\t".join(fields) + "\n")
        (directory / f"{name}.txt").write_bytes("".join(lines).encode("utf-8"))


def digest_blocks(work: Path) -> list[tuple[str, bytes | str]]:
    """Outputs of loading the block-edge dataset, as (name, bytes or hash)."""
    import numpy as np
    from timekge import Dataset

    directory = work / "blocks"
    write_block_edge_dataset(directory)
    dataset = Dataset.from_dir(directory)
    artifacts = [("blocks/stats.stdout", _cli(["stats", "--dataset", str(directory)]))]
    artifacts += [(f"blocks/vocab/{kind}", value)
                  for kind, value in dataset.vocab.hashes().items()]
    artifacts += [(f"blocks/{name}", np.ascontiguousarray(getattr(dataset, name), "<i8").tobytes())
                  for name in ("train", "valid", "test")]
    return artifacts


def scale_dataset():
    """A seeded dataset of 600 entities whose 300 train facts give about 600
    1-N keys (3 batches of 200) and whose 800 test facts give 1,600 queries."""
    import datetime as dt

    import numpy as np
    from timekge import Dataset, Vocab

    rng = np.random.default_rng(11)
    entities, relations, days = 600, 5, 12

    def facts(n):
        return np.stack([rng.integers(0, entities, n), rng.integers(0, relations, n),
                         rng.integers(0, entities, n), rng.integers(0, days, n)], axis=1)

    vocab = Vocab(entities=[f"e{i}" for i in range(entities)],
                  relations=[f"r{i}" for i in range(relations)],
                  dates=[dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(days)])
    return Dataset(vocab=vocab, train=facts(300), valid=facts(100), test=facts(800))


def digest_scale() -> list[tuple[str, bytes | str]]:
    """Losses (hex floats) and the bytes of every tensor and metrics record
    of the scale runs, as (name, value)."""
    import numpy as np
    from timekge import TrainConfig, Trainer

    dataset = scale_dataset()
    artifacts = []
    for variant, encoder in SCALE_PAIRS:
        pair = f"{variant}-{encoder}"
        trainer = Trainer(dataset, TrainConfig(variant=variant, encoder=encoder, dim_entity=32,
                                               rank=16, batch_size=200, epochs=2, seed=7))
        for record in trainer.run():
            artifacts.append((f"{pair}/loss-epoch-{record.epoch}", float(record.loss).hex()))
        for group, tensors in (("param", trainer.model.params.tensors()),
                               ("m", trainer.adam.m), ("v", trainer.adam.v)):
            artifacts += [(f"{pair}/{group}/{name}", np.ascontiguousarray(t, "<f8").tobytes())
                          for name, t in tensors.items()]
        ts = np.arange(ENCODE_ROWS) % trainer.num_timestamps
        artifacts.append((f"{pair}/encode-{ENCODE_ROWS}", np.ascontiguousarray(
            trainer.model.params.encoder.encode_batch(ts), "<f8").tobytes()))
        for mode in ("filtered", "raw"):
            metrics = trainer.evaluate_split("test", mode=mode).to_dict()
            artifacts.append((f"{pair}/evaluate-{mode}.json",
                              json.dumps(metrics, sort_keys=True).encode("utf-8")))
    return artifacts


def digest() -> None:
    import timekge
    from timekge import synthetic_dataset_dir

    dataset = str(synthetic_dataset_dir())
    with tempfile.TemporaryDirectory() as work:
        for index, (variant, encoder) in enumerate(PAIRS):
            for name, data in digest_pair(index, variant, encoder, dataset, Path(work)):
                print(f"{variant}-{encoder} {name} {hashlib.sha256(data).hexdigest()}")
        for name, data in digest_data(dataset, Path(work)) + digest_blocks(Path(work)):
            if isinstance(data, bytes):
                data = hashlib.sha256(data).hexdigest()
            print(f"data {name} {data}")
    sys.stdout.flush()
    # each scale group in a child of its own, which imports the same timekge
    src = str(Path(timekge.__file__).resolve().parent.parent)
    for threads in SCALE_THREADS:
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--scale"],
                       env=env, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="source tree holding the timekge package to digest")
    parser.add_argument("--scale", action="store_true",
                        help="print only the scale group, at this process's BLAS thread count")
    args = parser.parse_args()
    if args.scale:
        group = f"scale-threads{os.environ.get('OPENBLAS_NUM_THREADS', '-default')}"
        for name, value in digest_scale():
            if isinstance(value, bytes):
                value = hashlib.sha256(value).hexdigest()
            print(f"{group} {name} {value}")
        return 0
    if args.src is None:
        digest()
        return 0
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    return subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
