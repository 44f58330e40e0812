"""Seeded ICEWS14-shaped input for the benchmark.

Writes tab-separated ``train``/``valid``/``test`` files of
``subject \\t relation \\t object \\t YYYY-MM-DD`` facts with the shape of
ICEWS14 (Garcia-Duran et al. 2018): 7129 entities, 230 relations, 365 daily
timestamps and 72,826 / 8,941 / 8,963 facts. Subjects, objects and
relations are Zipf-skewed, so some 1-N keys and filter sets hold more than
one object, as in the real data. The first 7129 train facts cover every
entity as a subject, every relation and every date, so the vocabulary is
exactly 7129/230/365. Facts are distinct within and across splits.

With ``--checkpoint`` it also writes a seeded, untrained checkpoint for the
dataset through the library's own ``save_checkpoint``, plus the SHA-256 of
every tensor's bytes so that a reader can check the round trip bit for bit.

Usage::

    python3 perfbench/generate.py --out DIR --seed 0 [--checkpoint VARIANT,ENCODER,DIM,RANK]
    python3 perfbench/generate.py --out DIR --seed 0 --smoke   # bundled synthetic data
"""

import argparse
import datetime as dt
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import NUM_DAYS, NUM_ENTITIES, NUM_RELATIONS

FIRST_DAY = dt.date(2014, 1, 1)
SPLIT_SIZES = {"train": 72826, "valid": 8941, "test": 8963}
# Exponent 1.0 gives about 1.05 objects per 1-N key and up to ~10;
# uniform sampling would give exactly one, so no key would need grouping.
ZIPF_EXPONENT = 1.0

REPO_ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC_DIR = REPO_ROOT / "src" / "timekge" / "assets" / "synthetic"


def _zipf(rng: np.random.Generator, by_rank: np.ndarray, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, by_rank.size + 1) ** ZIPF_EXPONENT
    return by_rank[rng.choice(by_rank.size, size=size, p=weights / weights.sum())]


def icews14_shaped(seed: int) -> dict[str, np.ndarray]:
    """Integer (s, p, o, t) facts per split; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    ent_by_rank = rng.permutation(NUM_ENTITIES)
    rel_by_rank = rng.permutation(NUM_RELATIONS)
    total = sum(SPLIT_SIZES.values())
    draws = total + total // 10 - NUM_ENTITIES  # headroom for dropped duplicates

    cover = np.stack([
        rng.permutation(NUM_ENTITIES),
        rng.permutation(np.arange(NUM_ENTITIES) % NUM_RELATIONS),
        _zipf(rng, ent_by_rank, NUM_ENTITIES),
        rng.permutation(np.arange(NUM_ENTITIES) % NUM_DAYS),
    ], axis=1)
    rest = np.stack([
        _zipf(rng, ent_by_rank, draws),
        _zipf(rng, rel_by_rank, draws),
        _zipf(rng, ent_by_rank, draws),
        rng.integers(0, NUM_DAYS, size=draws),
    ], axis=1)
    facts = np.concatenate([cover, rest])
    loops = facts[:, 0] == facts[:, 2]
    facts[loops, 2] = (facts[loops, 2] + 1) % NUM_ENTITIES

    packed = ((facts[:, 0] * NUM_RELATIONS + facts[:, 1]) * NUM_ENTITIES
              + facts[:, 2]) * NUM_DAYS + facts[:, 3]
    _, first = np.unique(packed, return_index=True)
    facts = facts[np.sort(first)]
    if facts.shape[0] < total:
        raise RuntimeError(f"only {facts.shape[0]} distinct facts for {total}")

    splits, start = {}, 0
    for name, size in SPLIT_SIZES.items():
        splits[name] = facts[start:start + size]
        start += size
    splits["train"] = splits["train"][rng.permutation(SPLIT_SIZES["train"])]
    return splits


def write_splits(splits: dict[str, np.ndarray], out: Path) -> None:
    ents = [f"entity-{i:05d}" for i in range(NUM_ENTITIES)]
    rels = [f"relation-{i:03d}" for i in range(NUM_RELATIONS)]
    days = [(FIRST_DAY + dt.timedelta(days=t)).isoformat() for t in range(NUM_DAYS)]
    for name, facts in splits.items():
        lines = [f"{ents[s]}\t{rels[p]}\t{ents[o]}\t{days[t]}\n"
                 for s, p, o, t in facts.tolist()]
        (out / f"{name}.txt").write_text("".join(lines), encoding="utf-8")


def shape_stats(splits: dict[str, np.ndarray], num_relations: int) -> dict:
    """Key, target and filter counts over the reciprocal-augmented splits."""
    def augmented(facts):
        twin = facts[:, [2, 1, 0, 3]].copy()
        twin[:, 1] += num_relations
        return np.concatenate([facts, twin])

    def key(facts):
        return (facts[:, 0] * 2 * num_relations + facts[:, 1]) * NUM_DAYS + facts[:, 3]

    train = augmented(splits["train"])
    _, per_key = np.unique(key(train), return_counts=True)
    every = np.concatenate([augmented(f) for f in splits.values()])
    every_keys, every_counts = np.unique(key(every), return_counts=True)
    queries = np.concatenate([augmented(splits["valid"]), augmented(splits["test"])])
    filter_sizes = every_counts[np.searchsorted(every_keys, key(queries))]
    return {
        "facts": {name: int(f.shape[0]) for name, f in splits.items()},
        "train_keys": int(per_key.size),
        "targets_per_key_mean": float(per_key.mean()),
        "targets_per_key_max": int(per_key.max()),
        "eval_queries": int(queries.shape[0]),
        "filter_size_mean": float(filter_sizes.mean()),
        "filter_size_max": int(filter_sizes.max()),
    }


def write_checkpoint(data_dir: Path, ckpt_dir: Path, spec: str, seed: int) -> None:
    """Seeded untrained parameters for the dataset, via the library's writer."""
    from timekge.datasets import Dataset
    from timekge.scoring import init_params
    from timekge.training import save_checkpoint

    variant, encoder, dim, rank = spec.split(",")
    dataset = Dataset.from_dir(data_dir)
    vocab = dataset.vocab
    params = init_params(variant, num_entities=vocab.num_entities,
                         num_relations=vocab.num_relations, rank=int(rank),
                         dim_entity=int(dim), encoder=encoder,
                         num_timestamps=vocab.num_timestamps, dates=vocab.dates,
                         rng=np.random.default_rng(seed))
    save_checkpoint(ckpt_dir, params, vocab_hashes=vocab.hashes(), epoch=0,
                    seed=seed, num_timestamps=vocab.num_timestamps)
    digests = {name: hashlib.sha256(np.ascontiguousarray(t, dtype="<f8").tobytes()).hexdigest()
               for name, t in params.tensors().items()}
    (data_dir / "checkpoint.sha256.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--checkpoint", help="VARIANT,ENCODER,DIM,RANK of a checkpoint to write")
    parser.add_argument("--smoke", action="store_true",
                        help="copy the bundled 200-fact synthetic dataset instead")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        for name in SPLIT_SIZES:
            shutil.copyfile(SYNTHETIC_DIR / f"{name}.txt", args.out / f"{name}.txt")
        stats = {"source": "bundled synthetic dataset"}
    else:
        splits = icews14_shaped(args.seed)
        write_splits(splits, args.out)
        stats = shape_stats(splits, NUM_RELATIONS)
    if args.checkpoint:
        write_checkpoint(args.out, args.out / "checkpoint", args.checkpoint, args.seed)
    (args.out / "shape.json").write_text(json.dumps(stats, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
