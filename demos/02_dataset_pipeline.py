#!/usr/bin/env python3
"""From raw quadruple lines to 1-N training targets.

The data pipeline is: parse -> vocabulary -> integer facts -> reciprocal
augmentation -> optional time resampling -> (s, p, t) target groups.
This script runs the bundled synthetic dataset through every stage and
prints what each one does.
"""

import json

import numpy as np

from timekge import (
    Dataset,
    augment_reciprocal,
    group_targets,
    resample_time,
    synthetic_dataset_dir,
)

# --- load a dataset directory -------------------------------------------------
ds = Dataset.from_dir(synthetic_dataset_dir())
print("stats:", json.dumps(ds.stats()))
print("first indexed train facts (s, p, o, t):")
print(ds.train[:3])

# --- reciprocal augmentation ---------------------------------------------------
# Head queries (?, p, o, t) are answered by the tail machinery through a
# synthetic inverse predicate at index p + num_relations.
augmented = augment_reciprocal(ds.train, ds.vocab.num_relations)
print(f"\n{ds.train.shape[0]} facts become {augmented.shape[0]} after augmentation")
s, p, o, t = (int(v) for v in ds.train[0])
print("fact", (s, p, o, t), "gains twin",
      tuple(int(v) for v in augmented[ds.train.shape[0]]),
      f"({ds.vocab.relation_label(p + ds.vocab.num_relations)})")

# --- time resampling -----------------------------------------------------------
# Merging every r consecutive timestamps coarsens the graph; at large r it
# degenerates into a static KG with a single timestamp.
for rate in (1, 4, 1024):
    resampled, count = resample_time(augmented, rate, ds.vocab.num_timestamps)
    print(f"rate {rate:>4}: {count} timestamp bucket(s), "
          f"max index {resampled[:, 3].max()}")

# --- 1-N target groups -----------------------------------------------------------
# Training rows are distinct (s, p, t) keys; the target is the set of all
# objects observed with that key.
targets = group_targets(augmented)
sizes = np.diff(targets.offsets)
print(f"\n{len(targets)} distinct (s, p, t) keys; "
      f"object-set sizes: min {sizes.min()}, max {sizes.max()}")
if sizes.max() > 1:
    multi = tuple(targets.key_array[np.argmax(sizes > 1)].tolist())
    print("example multi-object key:", multi, "->", targets[multi])
