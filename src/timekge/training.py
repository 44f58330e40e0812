"""1-N training: smoothed binary cross-entropy over all candidate objects,
Adam with per-epoch exponential learning-rate decay, and when a run saves.

A training row is one distinct ``(s, p, t)`` key from the
reciprocal-augmented train split; its target vector marks every object
observed with that key in train (never valid/test, which would leak into
evaluation). Runs are reproducible: one seeded PCG64 generator drives
initialization, shuffling and dropout in a fixed consumption order.
"""

import dataclasses
import json
import logging
import math
import numbers
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation
# load_checkpoint is bound here for perfbench, which calls and traces both as training.*
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import Dataset, TargetIndex, group_targets, prepare_splits, resample_dates
from .errors import ConfigError, NumericError
from .kernels import _CHUNK
from .scoring import Model, init_params, param_layout

logger = logging.getLogger(__name__)

CHECKPOINT_POLICIES = ("best", "every", "last")


# ---------------------------------------------------------------------------
# loss pieces
# ---------------------------------------------------------------------------

def bce_loss(logits: np.ndarray, rows: np.ndarray, objects: np.ndarray,
             smoothing: float) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over candidates against label-smoothed
    targets, in overflow-safe form.

    Accepts one logits vector or a batch of them over ``E`` candidates; the
    loss averages over every element. Every target is ``smoothing / E``,
    and row ``rows[j]`` (0 for a vector) marks object ``objects[j]`` with
    ``1 - smoothing`` more, as :meth:`TargetIndex.lookup` returns them. The
    targets are never formed whole: each chunk of logits fills its own.
    Returns the loss and its gradient w.r.t. the logits, written over
    ``logits``: the returned array is ``logits`` itself when that is a
    writeable C-contiguous float64 array, and a converted copy otherwise.
    Each chunk is overwritten once its loss terms are summed and found
    finite, so a raised :class:`NumericError` leaves the chunks before the
    bad one overwritten.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"label smoothing must be in [0, 1), got {smoothing}")
    x = np.require(logits, dtype=np.float64, requirements=["C", "W"])
    if x.ndim not in (1, 2):
        raise ConfigError(f"bce_loss: logits must be a vector or a batch, got shape {x.shape}")
    if x.size == 0:
        raise ConfigError("bce_loss: no logits")
    num_rows, num_entities = x.size // x.shape[-1], x.shape[-1]
    rows, objects = np.asarray(rows, dtype=np.int64), np.asarray(objects, dtype=np.int64)
    if rows.shape != objects.shape or rows.ndim != 1:
        raise ConfigError(f"bce_loss: rows {rows.shape} and objects {objects.shape} "
                          "must be vectors of one length")
    if rows.size and not (0 <= rows.min() <= rows.max() < num_rows
                          and 0 <= objects.min() <= objects.max() < num_entities):
        raise ConfigError(f"bce_loss: a mark lies outside the logits' shape {x.shape}")
    # the marks of chunk i are marks[bounds[i]:bounds[i + 1]]
    marks = np.sort(rows * num_entities + objects)
    bounds = np.searchsorted(marks, np.arange(0, x.size + _CHUNK, _CHUNK))
    base, mark = smoothing / num_entities, 1.0 - smoothing
    # -[y log s(x) + (1-y) log(1-s(x))] == softplus(x) - y*x, where
    # softplus(x) = max(x, 0) + log1p(z) and s(x) = where(x >= 0, 1, z) / (1 + z)
    # share one z = exp(-|x|); the gradient goes over the chunk's logits
    # after their last read
    flat_x = x.reshape(-1)
    width = min(_CHUNK, x.size)
    exps, terms, scratch, targets = (np.empty(width) for _ in range(4))
    nonneg = np.empty(width, dtype=bool)
    sums = []
    with np.errstate(invalid="ignore", over="ignore"):
        for i, start in enumerate(range(0, x.size, _CHUNK)):
            xs = flat_x[start:start + _CHUNK]
            z, t, sc, ys, pos = (a[:xs.size] for a in (exps, terms, scratch, targets, nonneg))
            ys.fill(base)
            ys[marks[bounds[i]:bounds[i + 1]] - start] += mark
            np.abs(xs, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)
            np.maximum(xs, 0.0, out=t)
            t += np.log1p(z, out=sc)
            t -= np.multiply(ys, xs, out=sc)
            sums.append(t.sum())
            # a non-finite logit always makes its term inf or nan
            if not np.isfinite(sums[-1]):
                raise NumericError("non-finite logits or loss in bce_loss")
            np.add(z, 1.0, out=t)
            np.greater_equal(xs, 0.0, out=pos)
            np.copyto(z, 1.0, where=pos)
            np.divide(z, t, out=xs)
            xs -= ys
            xs /= x.size
    return math.fsum(sums) / x.size, x


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment estimates per tensor plus the shared step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: typing.ClassVar[float] = 0.9
    beta2: typing.ClassVar[float] = 0.999
    eps: typing.ClassVar[float] = 1e-8

    @classmethod
    def for_params(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        # np.zeros maps pages that the OS zeroes on first touch, where
        # zeros_like writes every page at once
        return cls(m={k: np.zeros(t.shape) for k, t in tensors.items()},
                   v={k: np.zeros(t.shape) for k, t in tensors.items()})


def adam_step(tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction.

    ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, computed in place
    chunk by chunk through two small scratch buffers; ``grads`` is only read.
    """
    for name, theta in tensors.items():
        if grads[name].shape != theta.shape:
            raise ConfigError(f"gradient shape mismatch for {name!r}")
        # updated through flat views, which only C-contiguous arrays have
        if not all(a.flags.c_contiguous for a in (theta, state.m[name], state.v[name])):
            raise ConfigError(f"{name!r}: parameter and moments must be C-contiguous")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    scratch, step = np.empty(_CHUNK), np.empty(_CHUNK)
    for name, theta in tensors.items():
        flat = [a.reshape(-1) for a in (theta, grads[name], state.m[name], state.v[name])]
        for start in range(0, theta.size, _CHUNK):
            t, g, m, v = (a[start:start + _CHUNK] for a in flat)
            sc, st = scratch[:g.size], step[:g.size]
            m *= state.beta1
            m += np.multiply(g, 1.0 - state.beta1, out=sc)
            v *= state.beta2
            np.multiply(g, 1.0 - state.beta2, out=sc)
            v += np.multiply(sc, g, out=sc)
            np.divide(v, bc2, out=sc)
            np.sqrt(sc, out=sc)
            sc += state.eps
            np.divide(m, bc1, out=st)
            st *= lr
            st /= sc
            t -= st


def decay_lr(base_lr: float, decay: float, epoch: int) -> float:
    """Exponential schedule, applied once per epoch."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return base_lr * decay ** epoch


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    variant: str = "tnt"
    encoder: str = "ste"
    dim_entity: int = 300
    dim_relation: int | None = None
    dim_time: int | None = None
    rank: int = 32
    lr: float = 0.01
    decay: float = 0.99
    batch_size: int = 1000
    label_smoothing: float = 0.01
    dropout_input: float = 0.1
    dropout_hidden: float = 0.2
    epochs: int = 50
    seed: int = 0
    time_sampling_rate: int = 1

    def validate(self) -> None:
        """Refuse a field of the wrong type, then any value no run can use; the
        model rules are :func:`param_layout`'s, asked at unit counts, so no data."""
        for f in dataclasses.fields(self):
            _check_type(f, getattr(self, f.name))
        param_layout(self.variant, 1, 1, self.rank, self.dim_entity, self.dim_relation,
                     self.dim_time, self.encoder, num_timestamps=1)
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")
        for name, value in (("lr", self.lr), ("decay", self.decay)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        # the schedule peaks at its first or last epoch; both must stay finite
        try:
            last = decay_lr(self.lr, self.decay, max(self.epochs - 1, 0))
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise ConfigError(f"lr {self.lr} with decay {self.decay} overflows by epoch "
                              f"{self.epochs - 1}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label smoothing must be in [0, 1)")
        for rate in (self.dropout_input, self.dropout_hidden):
            if not 0.0 <= rate < 1.0:
                raise ConfigError("dropout rates must be in [0, 1)")
        if self.time_sampling_rate < 1:
            raise ConfigError("time sampling rate must be >= 1")


def _check_type(field: dataclasses.Field, value) -> None:
    """A bool is no int, an int is a float, and None only where the field allows it."""
    allowed = tuple({int: numbers.Integral, float: numbers.Real}.get(t, t)
                    for t in typing.get_args(field.type) or (field.type,))
    if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
        expected = getattr(field.type, "__name__", field.type)
        raise ConfigError(f"config field {field.name!r} must be {expected}, got {value!r}")


def check_checkpoint_policy(policy: str, every: int | None) -> None:
    """Refuse an unknown policy or an interval below 1; only ``every`` needs one."""
    if policy not in CHECKPOINT_POLICIES:
        raise ConfigError(f"unknown checkpoint policy {policy!r} (expected best, every or last)")
    if (every is None and policy == "every") or (every is not None and every < 1):
        raise ConfigError("checkpoint interval must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    seconds: float
    val: dict | None = None

    def to_json(self) -> dict:
        """The fields by name; ``val`` only when it was computed."""
        return {k: v for k, v in vars(self).items() if k != "val" or v is not None}


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

def train_epoch(model: Model, keys: np.ndarray, targets: TargetIndex,
                config: TrainConfig, adam: AdamState,
                rng: np.random.Generator, lr: float, epoch: int = 0) -> float:
    """One pass over shuffled 1-N keys; returns the mean per-key loss."""
    order = rng.permutation(keys.shape[0])
    tensors = model.params.tensors()
    total = 0.0
    for start in range(0, keys.shape[0], config.batch_size):
        batch = keys[order[start:start + config.batch_size]]
        try:
            loss = _train_step(model, tensors, batch, targets, config, adam, rng, lr)
        except NumericError as exc:
            raise NumericError(
                f"epoch {epoch}, batch {start // config.batch_size}: {exc}"
            ) from None
        total += loss * batch.shape[0]
    return total / keys.shape[0]


def _train_step(model: Model, tensors: dict[str, np.ndarray], batch: np.ndarray,
                targets: TargetIndex, config: TrainConfig, adam: AdamState,
                rng: np.random.Generator, lr: float) -> float:
    """One 1-N step on a batch of keys; returns its mean loss.

    The step owns each batch array only until it hands it on: ``bce_loss``
    builds the targets a chunk at a time from the batch's marks and writes
    the logit gradient over the logits, and the cache's fields and the
    gradient go to ``Model.backward`` in one dict that it empties, keeping
    no reference here, so backward frees each array after its last read.
    Every array of the batch is gone when the step returns, before the
    next batch's forward.
    """
    rows, objects = targets.lookup(batch)
    logits, cache = model.forward(
        batch[:, 0], batch[:, 1], batch[:, 2], training=True,
        dropout_input=config.dropout_input,
        dropout_hidden=config.dropout_hidden, rng=rng,
    )
    loss, dlogits = bce_loss(logits, rows, objects, config.label_smoothing)
    del logits, rows, objects
    inputs = {**vars(cache), "dlogits": dlogits}
    del cache, dlogits
    adam_step(tensors, model.backward(inputs), adam, lr)
    return loss


class Trainer:
    """Wires a dataset and a config into a reproducible training run."""

    def __init__(self, dataset: Dataset, config: TrainConfig):
        config.validate()
        self.config = config
        self.vocab = dataset.vocab
        self.splits, self.num_timestamps = prepare_splits(dataset, config.time_sampling_rate)
        self.train_quads, self.valid_quads, self.test_quads = self.splits.values()
        self.dates = resample_dates(self.vocab.dates, config.time_sampling_rate)

        self.targets = group_targets(self.train_quads)
        self.keys = self.targets.key_array
        self.filter = evaluation.build_filter(
            [self.train_quads, self.valid_quads, self.test_quads])

        seq = np.random.SeedSequence(config.seed)
        init_seq, train_seq = seq.spawn(2)
        params = init_params(
            config.variant,
            num_entities=self.vocab.num_entities,
            num_relations=self.vocab.num_relations,
            rank=config.rank,
            dim_entity=config.dim_entity,
            dim_relation=config.dim_relation,
            dim_time=config.dim_time,
            encoder=config.encoder,
            num_timestamps=self.num_timestamps,
            dates=self.dates,
            rng=np.random.default_rng(init_seq),
        )
        self.model = Model(params)
        self.rng = np.random.default_rng(train_seq)
        self.adam = AdamState.for_params(params.tensors())
        self.history: list[EpochRecord] = []

    def evaluate_split(self, split: str, mode: str = "filtered"):
        return evaluation.evaluate(self.model, self.splits[split], self.filter, mode=mode)

    def save(self, directory, epoch: int) -> None:
        """Checkpoint the model with this run's vocab hashes, seed and hyperparameters."""
        save_checkpoint(directory, self.model.params, vocab_hashes=self.vocab.hashes(),
                        epoch=epoch, seed=self.config.seed,
                        time_sampling_rate=self.config.time_sampling_rate,
                        num_timestamps=self.num_timestamps,
                        config=dataclasses.asdict(self.config))

    def check_policy(self, checkpoint_policy: str, checkpoint_every: int | None) -> None:
        """Refuse a checkpoint policy this run cannot apply."""
        check_checkpoint_policy(checkpoint_policy, checkpoint_every)
        if checkpoint_policy == "best" and not self.valid_quads.shape[0]:
            raise ConfigError("checkpoint policy 'best' needs a non-empty valid split")

    def run(self, eval_interval: int = 0, out=None, checkpoint_policy: str | None = None,
            checkpoint_every: int | None = None) -> list[EpochRecord]:
        """Train for the configured number of epochs.

        ``eval_interval > 0`` computes filtered validation metrics every
        that many epochs (and on the final one). Given an existing directory
        ``out``, each record is appended to ``out/history.jsonl`` and the
        model is saved by ``checkpoint_policy``, which :meth:`check_policy`
        vets before the first epoch: ``best`` when validation MRR beats
        every earlier record's, ``every`` after each
        ``checkpoint_every``-th epoch; ``checkpoint-last`` is saved at the
        end if nothing else was. Without ``out`` nothing is written.
        """
        if out is not None:
            self.check_policy(checkpoint_policy, checkpoint_every)
            out = Path(out)
            (out / "history.jsonl").write_text("")
        # what this run saved: checkpoints an earlier run left in ``out`` do not count
        saved = False
        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            lr = decay_lr(self.config.lr, self.config.decay, epoch)
            loss = train_epoch(self.model, self.keys, self.targets,
                               self.config, self.adam, self.rng, lr, epoch)
            record = EpochRecord(epoch=epoch, loss=loss, lr=lr,
                                 seconds=time.perf_counter() - started)
            if eval_interval > 0 and (
                    (epoch + 1) % eval_interval == 0 or epoch == self.config.epochs - 1):
                record.val = self.evaluate_split("valid").to_dict()
            self.history.append(record)
            logger.info("epoch %d: loss=%.6f lr=%.6g", epoch, loss, lr)
            if out is None:
                continue
            with open(out / "history.jsonl", "a", encoding="utf-8") as history:
                history.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            best = max((r.val["mrr"] for r in self.history[:-1] if r.val), default=-1.0)
            if checkpoint_policy == "best" and record.val and record.val["mrr"] > best:
                self.save(out / "checkpoint-best", epoch)
            elif checkpoint_policy == "every" and (epoch + 1) % checkpoint_every == 0:
                self.save(out / f"checkpoint-epoch-{epoch}", epoch)
            else:
                continue
            saved = True
        if out is not None and not saved:
            self.save(out / "checkpoint-last", self.config.epochs - 1)
        return self.history
