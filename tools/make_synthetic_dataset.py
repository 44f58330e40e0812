#!/usr/bin/env python3
"""Regenerate the bundled synthetic smoke-test dataset.

200 quadruples over 40 entities, 6 relations and 20 consecutive days.
Each relation is a fixed cyclic shift of the entity index
(``object = (subject + offset) % n``), and each generated (s, p, o)
triple is observed on two distinct days, so the held-out splits are
predictable from the train split: a model only has to learn the shift
pattern, not memorize timestamps. The split is a seeded shuffle, sized
160/20/20.

The output is committed under ``src/timekge/assets/synthetic``; rerun
only when the generation scheme changes. A test renders the files in
memory with :func:`render` and compares them with the committed ones.
"""

import datetime as dt
from pathlib import Path

import numpy as np

NUM_ENTITIES = 40
NUM_RELATIONS = 6
NUM_DAYS = 20
NUM_TRIPLES = 100          # each emitted at 2 timestamps -> 200 quadruples
FIRST_DAY = dt.date(2014, 1, 1)
SEED = 20140101


def generate(seed: int):
    rng = np.random.default_rng(seed)
    offsets = 2 * np.arange(NUM_RELATIONS) + 3

    triples = [(s, p, (s + offsets[p]) % NUM_ENTITIES)
               for s in range(NUM_ENTITIES) for p in range(NUM_RELATIONS)]
    chosen = rng.choice(len(triples), size=NUM_TRIPLES, replace=False)

    quads = []
    for idx in chosen:
        s, p, o = triples[idx]
        for day in rng.choice(NUM_DAYS, size=2, replace=False):
            quads.append((s, p, o, int(day)))
    if len(set(quads)) != len(quads):
        return None

    order = rng.permutation(len(quads))
    splits = {
        "train": [quads[i] for i in order[:160]],
        "valid": [quads[i] for i in order[160:180]],
        "test": [quads[i] for i in order[180:]],
    }

    # vocab coverage: every entity, relation and day must occur in train,
    # otherwise held-out facts rank against never-trained embeddings
    train = splits["train"]
    covered = (
        {s for s, _, _, _ in train} | {o for _, _, o, _ in train} == set(range(NUM_ENTITIES))
        and {p for _, p, _, _ in train} == set(range(NUM_RELATIONS))
        and {t for _, _, _, t in train} == set(range(NUM_DAYS))
    )
    return splits if covered else None


def covering_splits() -> tuple[int, dict]:
    """The first seed from ``SEED`` on whose draw satisfies the coverage
    constraints, and that draw."""
    for attempt in range(1000):
        splits = generate(SEED + attempt)
        if splits is not None:
            return SEED + attempt, splits
    raise AssertionError("no covering draw found")


def render(splits: dict) -> dict[str, bytes]:
    """The bytes of each split file, keyed by file name."""
    files = {}
    for name, rows in splits.items():
        lines = (f"E{s:02d}\tR{p}\tE{o:02d}\t{FIRST_DAY + dt.timedelta(days=t):%Y-%m-%d}\n"
                 for s, p, o, t in rows)
        files[f"{name}.txt"] = "".join(lines).encode("utf-8")
    return files


def main() -> None:
    seed, splits = covering_splits()
    print(f"seed {seed} satisfies the coverage constraints")
    out_dir = Path(__file__).resolve().parents[1] / "src" / "timekge" / "assets" / "synthetic"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in render(splits).items():
        (out_dir / name).write_bytes(data)
    print(f"wrote {sum(len(r) for r in splits.values())} quadruples to {out_dir}")


if __name__ == "__main__":
    main()
