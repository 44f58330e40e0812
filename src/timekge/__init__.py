"""Temporal knowledge-graph completion with low-rank bilinear fusion.

The package factors into:

* :mod:`timekge.gradcheck` -- finite-difference gradient checking;
* :mod:`timekge.datasets` -- quadruple parsing into four parallel columns,
  vocabularies, reciprocal augmentation, time resampling, the sorted
  ``(s, p, t)`` target index;
* :mod:`timekge.time_encoding` -- one time encoder, a sum of one row per
  cycle component; per-timestamp encoding is its one-component case;
* :mod:`timekge.scoring` -- the five fusion variants, stated once in
  :meth:`Model.fuse`, with hand-derived gradients;
* :mod:`timekge.kernels` -- the block size and row gather the batched
  passes share;
* :mod:`timekge.training` -- 1-N loop, Adam, a run's history and when it saves;
* :mod:`timekge.checkpoint` -- the on-disk checkpoint format, saved and loaded;
* :mod:`timekge.evaluation` -- filtered ranking metrics and count exports;
* :mod:`timekge.cli` -- the ``timekge`` command.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import (
    Dataset,
    QuadrupleColumns,
    TargetIndex,
    Vocab,
    augment_reciprocal,
    build_vocab,
    group_targets,
    index_quadruples,
    parse_quadruples,
    resample_time,
    synthetic_dataset_dir,
)
from .evaluation import RankingMetrics, build_filter, evaluate, rank_of
from .gradcheck import GradCheckReport, finite_diff_check
from .scoring import Model, ModelParams, Variant, init_params, score_all
from .time_encoding import (
    COMPONENTS,
    CycleIndices,
    CyclicTimeEncoder,
    SimpleTimeEncoder,
    cycle_cardinalities,
    decompose_date,
)
from .training import (
    AdamState,
    TrainConfig,
    Trainer,
    adam_step,
    bce_loss,
    decay_lr,
    train_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "COMPONENTS", "CycleIndices", "CyclicTimeEncoder", "Dataset",
    "GradCheckReport", "Model", "ModelParams", "QuadrupleColumns", "RankingMetrics",
    "SimpleTimeEncoder", "TargetIndex", "TrainConfig", "Trainer", "Variant", "Vocab",
    "adam_step", "augment_reciprocal", "bce_loss", "build_filter", "build_vocab",
    "cycle_cardinalities", "decay_lr", "decompose_date", "evaluate",
    "finite_diff_check", "group_targets", "index_quadruples", "init_params",
    "load_checkpoint", "parse_quadruples", "rank_of", "resample_time", "save_checkpoint",
    "score_all", "synthetic_dataset_dir", "train_epoch",
]
