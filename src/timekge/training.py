"""1-N training: smoothed binary cross-entropy over all candidate objects,
Adam with per-epoch exponential learning-rate decay, checkpointing.

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
import os
import shutil
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation
from .datasets import Dataset, TargetIndex, group_targets, prepare_splits, resample_dates
from .errors import (
    CheckpointCorruptError,
    CheckpointShapeError,
    CheckpointVocabError,
    ConfigError,
    NumericError,
)
from .scoring import (
    _CHUNK,
    Model,
    ModelParams,
    Variant,
    init_params,
    param_layout,
)

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"
CHECKPOINT_FORMAT = "timekge-checkpoint-v1"
CHECKPOINT_POLICIES = ("best", "every", "last")


# ---------------------------------------------------------------------------
# loss pieces
# ---------------------------------------------------------------------------

def _target_matrix(rows: np.ndarray, objects: np.ndarray, num_rows: int,
                   num_entities: int, smoothing: float) -> np.ndarray:
    """Label-smoothed targets: row ``rows[j]`` marks object ``objects[j]``."""
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"label smoothing must be in [0, 1), got {smoothing}")
    y = np.full((num_rows, num_entities), smoothing / num_entities)
    y.reshape(-1)[rows * num_entities + objects] += 1.0 - smoothing
    return y


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over candidates, in overflow-safe form.

    Accepts one logits vector or a batch of them; the loss averages over
    every element. Returns the loss and its gradient w.r.t. the logits,
    written over ``logits``: the returned array is ``logits`` itself when
    that is a writeable C-contiguous float64 array, and a converted copy
    otherwise. Each chunk is overwritten once its loss terms are summed and
    found finite, so a raised :class:`NumericError` leaves the chunks before
    the bad one overwritten.
    """
    x = np.require(logits, dtype=np.float64, requirements=["C", "W"])
    y = np.asarray(targets, dtype=np.float64)
    if x.shape != y.shape:
        raise ConfigError(f"logits shape {x.shape} != targets shape {y.shape}")
    if x.size == 0:
        raise ConfigError("bce_loss: no logits")
    # -[y log s(x) + (1-y) log(1-s(x))] == softplus(x) - y*x, where
    # softplus(x) = max(x, 0) + log1p(z) and s(x) = where(x >= 0, 1, z) / (1 + z)
    # share one z = exp(-|x|); the gradient goes over the chunk's logits
    # after their last read
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    width = min(_CHUNK, x.size)
    exps, terms, scratch = np.empty(width), np.empty(width), np.empty(width)
    nonneg = np.empty(width, dtype=bool)
    sums = []
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, x.size, _CHUNK):
            xs, ys = flat_x[start:start + _CHUNK], flat_y[start:start + _CHUNK]
            z, t, sc, pos = exps[:xs.size], terms[:xs.size], scratch[:xs.size], nonneg[:xs.size]
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
        return cls(m={k: np.zeros_like(t) for k, t in tensors.items()},
                   v={k: np.zeros_like(t) for k, t in tensors.items()})


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
        """Refuse a field of the wrong type, then any value no run can use."""
        for f in dataclasses.fields(self):
            _check_type(f, getattr(self, f.name))
        Variant.from_string(self.variant)
        if self.encoder not in ("ste", "cte"):
            raise ConfigError(f"unknown encoder {self.encoder!r} (expected 'ste' or 'cte')")
        sizes = (self.dim_entity, self.dim_relation, self.dim_time, self.rank, self.batch_size)
        if any(n is not None and n < 1 for n in sizes):
            raise ConfigError("dims, rank and batch size must be positive")
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
        out = {"epoch": self.epoch, "loss": self.loss, "lr": self.lr,
               "seconds": self.seconds}
        if self.val is not None:
            out["val"] = self.val
        return out


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
    writes the logit gradient over the logits, the targets are released
    before the backward pass, and the cache's fields and the gradient go to
    ``Model.backward`` in one dict that it empties, keeping no reference
    here, so backward frees each array after its last read. Every array of
    the batch is gone when the step returns, before the next batch's
    forward.
    """
    y = _target_matrix(*targets.lookup(batch), batch.shape[0], model.params.num_entities,
                       config.label_smoothing)
    logits, cache = model.forward(
        batch[:, 0], batch[:, 1], batch[:, 2], training=True,
        dropout_input=config.dropout_input,
        dropout_hidden=config.dropout_hidden, rng=rng,
    )
    loss, dlogits = bce_loss(logits, y)
    del logits, y
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


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(directory, params: ModelParams, *, vocab_hashes: dict,
                    epoch: int, seed: int, time_sampling_rate: int = 1,
                    num_timestamps: int | None = None,
                    config: dict | None = None) -> None:
    """Write a manifest plus one raw little-endian float64 file per tensor.

    The files are written into a sibling ``<name>.tmp/`` that replaces
    ``directory`` only once every file is complete, so a failure while
    overwriting a checkpoint leaves the previous one in place. Every file
    and the staging directory reach the disk before the swap, and the
    parent directory after it, so a crash of the OS cannot leave a swapped-in
    checkpoint with short files. An existing ``directory`` must be empty or
    hold a checkpoint manifest.
    """
    directory = Path(directory).absolute()
    empty_dir = directory.is_dir() and not any(directory.iterdir())
    if directory.exists() and not empty_dir and not (directory / "manifest.json").is_file():
        raise CheckpointCorruptError(
            f"refusing to replace {directory}: it holds no checkpoint manifest")
    tensors = params.tensors()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "variant": params.variant.value,
        "rank": params.rank,
        "encoder": params.encoder.kind if params.encoder is not None else None,
        "dims": {
            "entity": params.dim_entity,
            "relation": params.dim_relation,
            "time": params.dim_time,
        },
        "num_entities": params.num_entities,
        "num_relations": params.relation.shape[0] // 2,
        "num_timestamps": num_timestamps,
        "tensors": {name: list(t.shape) for name, t in tensors.items()},
        "vocab_hashes": vocab_hashes,
        "epoch": epoch,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "time_sampling_rate": time_sampling_rate,
    }
    if config is not None:
        manifest["config"] = config
    staging = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)  # left by an interrupted save
    staging.mkdir(parents=True)
    try:
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            _sync_file(fh)
        for name, tensor in tensors.items():
            with open(staging / f"{name}.bin", "wb") as fh:
                fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
                _sync_file(fh)
        _sync_dir(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # a directory cannot be renamed over a non-empty one, so the previous
    # checkpoint steps aside to <name>.old until the new one is in place
    retired = directory.with_name(directory.name + ".old")
    shutil.rmtree(retired, ignore_errors=True)
    if directory.exists():
        os.replace(directory, retired)
    os.replace(staging, directory)
    _sync_dir(directory.parent)
    shutil.rmtree(retired, ignore_errors=True)


def _sync_file(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def _sync_dir(path: Path) -> None:
    """Flush a directory's entries, so the names it holds survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}
# The manifest fields load_checkpoint reads and the JSON types each may hold.
_MANIFEST_FIELDS = {
    "format": (str,), "variant": (str,), "rank": (int,), "num_entities": (int,),
    "num_relations": (int,), "dims": (dict,), "tensors": (dict,), "vocab_hashes": (dict,),
    "encoder": (str, type(None)), "num_timestamps": (int, type(None)),
    "time_sampling_rate": (int,),
}
_DIMS_FIELDS = {"entity": (int,), "relation": (int,), "time": (int, type(None))}
_OPTIONAL_FIELDS = ("encoder", "num_timestamps", "time_sampling_rate")


def _check_fields(table: dict, fields: dict, prefix: str = "") -> None:
    for key, types in fields.items():
        name = prefix + key
        if key not in table:
            if name in _OPTIONAL_FIELDS:
                continue
            raise CheckpointCorruptError(f"manifest missing field {name!r}")
        found = type(table[key])
        if found not in types:
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise CheckpointCorruptError(
                f"manifest field {name!r} must be {expected}, got {_JSON_TYPES[found]}")


def _check_manifest(manifest) -> None:
    """Refuse a manifest with a missing field or a field of the wrong JSON type."""
    if type(manifest) is not dict:
        raise CheckpointCorruptError("manifest must be a JSON object")
    _check_fields(manifest, _MANIFEST_FIELDS)
    _check_fields(manifest["dims"], _DIMS_FIELDS, "dims.")
    for name, shape in manifest["tensors"].items():
        if type(shape) is not list or any(type(n) is not int for n in shape):
            raise CheckpointCorruptError(
                f"manifest field 'tensors.{name}' must be an array of integers")


def load_checkpoint(directory, dataset: Dataset) -> tuple[ModelParams, dict]:
    """Restore parameters saved by :func:`save_checkpoint`.

    The dataset is required both to verify that the checkpoint was
    trained on the same vocabularies and counts and to rebuild
    the cyclic encoder's per-timestamp decomposition cache.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"cannot read {manifest_path}: {exc}") from None
    _check_manifest(manifest)
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(f"unsupported checkpoint format {manifest['format']!r}")

    hashes = dataset.vocab.hashes()
    if manifest["vocab_hashes"] != hashes:
        raise CheckpointVocabError(
            "checkpoint vocabulary hashes do not match this dataset")
    rate = manifest.get("time_sampling_rate", 1)
    if rate < 1:
        raise CheckpointCorruptError(
            f"manifest field 'time_sampling_rate' must be >= 1, got {rate}")
    dates = resample_dates(dataset.vocab.dates, rate)
    # the dataset is the one source of the counts; the manifest must agree with it
    counts = {"num_entities": dataset.vocab.num_entities,
              "num_relations": dataset.vocab.num_relations, "num_timestamps": len(dates)}
    for name, count in counts.items():
        if manifest.get(name) not in (None, count):
            raise CheckpointCorruptError(
                f"manifest field {name!r} is {manifest[name]}, but the dataset "
                f"(at time sampling rate {rate}) gives {count}")

    dims = manifest["dims"]
    layout = param_layout(
        manifest["variant"], counts["num_entities"], counts["num_relations"],
        manifest["rank"], dims["entity"], dims["relation"], dims["time"],
        manifest.get("encoder"), counts["num_timestamps"])
    recorded = {name: tuple(shape) for name, shape in manifest["tensors"].items()}
    if recorded != layout:
        raise CheckpointShapeError(
            f"tensor layout {recorded} does not match the declared model {layout}")

    tensors = {name: _read_tensor(directory / f"{name}.bin", name, shape)
               for name, shape in layout.items()}

    params = ModelParams.from_tensors(Variant.from_string(manifest["variant"]),
                                      manifest["rank"], tensors,
                                      manifest.get("encoder"), dates)
    return params, manifest


def _read_tensor(path: Path, name: str, shape: tuple) -> np.ndarray:
    """The tensor in ``path``, read straight into its final array.

    The file's size is checked before the read, so the tensor is held once:
    no bytes object of the file beside it.
    """
    tensor = np.empty(shape, dtype="<f8")
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != tensor.nbytes:
                raise CheckpointShapeError(
                    f"{path.name}: expected {tensor.nbytes} bytes for shape {shape}, "
                    f"got {size}")
            read = fh.readinto(tensor.reshape(-1).view(np.uint8))
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read {path}: {exc}") from None
    if read != tensor.nbytes:  # the file shrank after its size was read
        raise CheckpointShapeError(
            f"{path.name}: expected {tensor.nbytes} bytes for shape {shape}, got {read}")
    # min and max carry any NaN or inf, with no tensor-sized temporary
    if tensor.size and not (np.isfinite(tensor.min()) and np.isfinite(tensor.max())):
        raise CheckpointCorruptError(f"{path.name}: tensor {name!r} holds non-finite values")
    return tensor.astype(np.float64, copy=False)
