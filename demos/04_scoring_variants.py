#!/usr/bin/env python3
"""The five fusion variants and the algebra connecting them.

Every variant projects its inputs into a rank-widened space, combines
them elementwise, pools back down, and dots the result against all
candidate objects. The temporal variants differ only in where the time
embedding enters:

    lowfer  pool(Us . Vp)                     no time
    t       pool(Us . V(p * t))               time reweights the relation
    tnt     pool(Us . V(p_t * t + p_static))  plus a static relation path
    cfb     pool(Us . M^T(Vp . Qt))           inner relation-time fusion
    ftp     Us . Vp . Qt  (rank 1)            three-way product

``Model.fuse`` states all five rules. Here each model is built on tables
of one row, so the query (0, 0, 0) fuses exactly the rows given.
"""

import math

import numpy as np

from timekge import Model, ModelParams, SimpleTimeEncoder, Variant, score_all
from timekge.scoring import param_layout

rng = np.random.default_rng(42)


def fuse(variant, rank, subj, rel, time=None, **tables):
    """Model.fuse for the single query (0, 0, 0) on one-row tables."""
    encoder = None if time is None else SimpleTimeEncoder(np.atleast_2d(time))
    params = ModelParams(Variant(variant), rank, np.atleast_2d(subj), np.atleast_2d(rel),
                         encoder=encoder, **tables)
    return Model(params).fuse([0], [0], None if time is None else [0]).g[0]


# --- the static base case, by hand ---------------------------------------------
# With identity projections and rank 1 the fusion is just an elementwise
# product of subject and relation features:
g = fuse("lowfer", 1, [1.0, 2.0], [3.0, 4.0], subject_proj=np.eye(2), relation_proj=np.eye(2))
print("lowfer, identity projections:", g)           # (3, 8)
print("scored against two objects:",
      score_all(g[None], np.array([[1.0, 0.0], [1.0, 1.0]]))[0])

# --- how the variants collapse into each other ----------------------------------
subj, rel, timev = rng.standard_normal((3, 4))
sp, rp = rng.standard_normal((2, 4, 8))
sq, rq, tq = rng.standard_normal((3, 4, 4))
bilinear = dict(subject_proj=sp, relation_proj=rp)
trilinear = dict(subject_proj=sq, relation_proj=rq, time_proj=tq)

print("\nt with all-ones time == lowfer:",
      np.array_equal(fuse("t", 2, subj, rel, np.ones(4), **bilinear),
                     fuse("lowfer", 2, subj, rel, **bilinear)))
print("tnt with zero static table == t:",
      np.array_equal(fuse("tnt", 2, subj, rel, timev, relation_static=np.zeros((1, 4)),
                          **bilinear),
                     fuse("t", 2, subj, rel, timev, **bilinear)))
print("cfb with identity middle projection, rank 1 == ftp:",
      np.array_equal(fuse("cfb", 1, subj, rel, timev, chain_proj=np.eye(4), **trilinear),
                     fuse("ftp", 1, subj, rel, timev, **trilinear)))

# --- parameter budgets ------------------------------------------------------------
# At equal dimensions the chained variant pays for its middle projection;
# the trilinear variant stays close to the bilinear baseline. The counts
# come from the tensor shapes alone; no table is built.
print("\nparameter counts (|E|=1000, |R|=50, |T|=365, d=300):")
for variant, rank in (("lowfer", 32), ("t", 32), ("tnt", 32), ("cfb", 32),
                      ("ftp", 1)):
    layout = param_layout(variant, num_entities=1000, num_relations=50,
                          rank=rank, dim_entity=300, encoder="ste", num_timestamps=365)
    count = sum(math.prod(shape) for shape in layout.values())
    print(f"  {variant:<7} rank {rank:>2}: {count:>12,}")
