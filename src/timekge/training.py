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
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation
from .datasets import (
    Dataset,
    TargetIndex,
    augment_reciprocal,
    group_targets,
    resample_dates,
    resample_time,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointShapeError,
    CheckpointVocabError,
    ConfigError,
    NumericError,
)
from .scoring import Model, ModelParams, Variant, _dropout_mask, init_params
from .time_encoding import CyclicTimeEncoder, SimpleTimeEncoder

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"
CHECKPOINT_FORMAT = "timekge-checkpoint-v1"

# Elementwise passes over large arrays run in chunks of this many float64
# values (256 KiB), so that each chunk's temporaries stay in cache.
_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# loss pieces
# ---------------------------------------------------------------------------

def smooth_targets(true_objects, num_entities: int, smoothing: float) -> np.ndarray:
    """Label-smoothed 0/1 target vector over all candidate objects."""
    objs = np.asarray(list(true_objects) if isinstance(true_objects, set) else true_objects,
                      dtype=np.int64).reshape(-1)
    if objs.size == 0:
        raise ConfigError("smooth_targets: empty true-object set (malformed grouping)")
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"label smoothing must be in [0, 1), got {smoothing}")
    y = np.full(num_entities, smoothing / num_entities)
    y[objs] += 1.0 - smoothing
    return y


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over candidates, in overflow-safe form.

    Accepts one logits vector or a batch of them; the loss averages over
    every element. Returns the loss and its gradient w.r.t. the logits.
    """
    x = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape != y.shape:
        raise ConfigError(f"logits shape {x.shape} != targets shape {y.shape}")
    if x.size == 0:
        raise ConfigError("bce_loss: no logits")
    # -[y log s(x) + (1-y) log(1-s(x))] == softplus(x) - y*x, where
    # softplus(x) = max(x, 0) + log1p(z) and s(x) = where(x >= 0, 1, z) / (1 + z)
    # share one z = exp(-|x|), computed in place in the gradient's own memory
    grad = np.empty(x.shape)
    flat_x, flat_y, flat_grad = x.reshape(-1), y.reshape(-1), grad.reshape(-1)
    width = min(_CHUNK, x.size)
    terms, scratch, nonneg = np.empty(width), np.empty(width), np.empty(width, dtype=bool)
    sums = []
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, x.size, _CHUNK):
            xs, ys = flat_x[start:start + _CHUNK], flat_y[start:start + _CHUNK]
            z = flat_grad[start:start + _CHUNK]
            t, sc, pos = terms[:xs.size], scratch[:xs.size], nonneg[:xs.size]
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
            z /= t
            z -= ys
            z /= x.size
    return math.fsum(sums) / x.size, grad


def apply_dropout(x, rate: float, rng: np.random.Generator | None = None,
                  training: bool = True) -> np.ndarray:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Identity when ``training`` is false or the rate is zero. The mask is
    the one :meth:`Model.fuse` samples.
    """
    arr = np.asarray(x, dtype=np.float64)
    mask = _dropout_mask(arr.shape, rate, training, rng)
    return arr.copy() if mask is None else arr * mask


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment estimates per tensor plus the shared step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, tensors: dict[str, np.ndarray], beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t) for k, t in tensors.items()},
            v={k: np.zeros_like(t) for k, t in tensors.items()},
            beta1=beta1, beta2=beta2, eps=eps,
        )


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
        Variant.from_string(self.variant)
        if self.encoder not in ("ste", "cte"):
            raise ConfigError(f"unknown encoder {self.encoder!r} (expected 'ste' or 'cte')")
        if self.dim_entity < 1 or self.rank < 1 or self.batch_size < 1:
            raise ConfigError("dims, rank and batch size must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("label smoothing must be in [0, 1)")
        for rate in (self.dropout_input, self.dropout_hidden):
            if not 0.0 <= rate < 1.0:
                raise ConfigError("dropout rates must be in [0, 1)")
        if self.time_sampling_rate < 1:
            raise ConfigError("time sampling rate must be >= 1")


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
    num_entities = model.params.num_entities
    order = rng.permutation(keys.shape[0])
    tensors = model.params.tensors()
    total = 0.0
    for start in range(0, keys.shape[0], config.batch_size):
        batch = keys[order[start:start + config.batch_size]]
        rows, objects = targets.lookup(batch)
        y = np.full((batch.shape[0], num_entities),
                    config.label_smoothing / num_entities)
        y.reshape(-1)[rows * num_entities + objects] += 1.0 - config.label_smoothing
        logits, cache = model.forward(
            batch[:, 0], batch[:, 1], batch[:, 2], training=True,
            dropout_input=config.dropout_input,
            dropout_hidden=config.dropout_hidden, rng=rng,
        )
        try:
            loss, dlogits = bce_loss(logits, y)
        except NumericError as exc:
            raise NumericError(
                f"epoch {epoch}, batch {start // config.batch_size}: {exc}"
            ) from None
        grads = model.backward(cache, dlogits)
        adam_step(tensors, grads, adam, lr)
        total += loss * batch.shape[0]
    return total / keys.shape[0]


class Trainer:
    """Wires a dataset and a config into a reproducible training run."""

    def __init__(self, dataset: Dataset, config: TrainConfig):
        config.validate()
        self.config = config
        self.vocab = dataset.vocab
        rate = config.time_sampling_rate
        num_t = self.vocab.num_timestamps
        self.train_quads, self.num_timestamps = resample_time(
            augment_reciprocal(dataset.train, self.vocab.num_relations), rate, num_t)
        self.valid_quads, _ = resample_time(
            augment_reciprocal(dataset.valid, self.vocab.num_relations), rate, num_t)
        self.test_quads, _ = resample_time(
            augment_reciprocal(dataset.test, self.vocab.num_relations), rate, num_t)
        self.dates = resample_dates(self.vocab.dates, rate)

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
        quads = {"train": self.train_quads, "valid": self.valid_quads,
                 "test": self.test_quads}[split]
        return evaluation.evaluate(self.model, quads, self.filter, mode=mode)

    def run(self, eval_interval: int = 0, on_epoch=None) -> list[EpochRecord]:
        """Train for the configured number of epochs.

        ``eval_interval > 0`` computes filtered validation metrics every
        that many epochs (and on the final one). ``on_epoch`` is called
        with each finished :class:`EpochRecord`.
        """
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
            if on_epoch is not None:
                on_epoch(record)
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
    overwriting a checkpoint leaves the previous one in place. An existing
    ``directory`` must be empty or hold a checkpoint manifest.
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
        for name, tensor in tensors.items():
            with open(staging / f"{name}.bin", "wb") as fh:
                fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
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
    shutil.rmtree(retired, ignore_errors=True)


def _expected_layout(manifest: dict) -> dict[str, tuple[int, ...]]:
    """Tensor shapes implied by the manifest's model description."""
    variant = Variant.from_string(manifest["variant"])
    rank = int(manifest["rank"])
    dims = manifest["dims"]
    n_ent = int(manifest["num_entities"])
    n_rel = int(manifest["num_relations"])
    d_e, d_r = int(dims["entity"]), int(dims["relation"])
    width = rank * d_e
    layout = {
        "entity": (n_ent, d_e),
        "relation": (2 * n_rel, d_r),
        "subject_proj": (d_e, width),
        "relation_proj": (d_r, width),
    }
    if variant is Variant.TNT:
        layout["relation_static"] = (2 * n_rel, d_r)
    if variant in (Variant.CFB, Variant.FTP):
        layout["time_proj"] = (int(dims["time"]), width)
    if variant is Variant.CFB:
        layout["chain_proj"] = (width, width)
    if variant.uses_time:
        d_t = int(dims["time"])
        if manifest["encoder"] == "ste":
            layout["time"] = (int(manifest["num_timestamps"]), d_t)
        else:
            from .time_encoding import COMPONENTS, cycle_cardinalities
            cards = cycle_cardinalities()
            for comp in COMPONENTS:
                layout[f"time_{comp}"] = (cards[comp], d_t)
    return layout


def load_checkpoint(directory, dataset: Dataset) -> tuple[ModelParams, dict]:
    """Restore parameters saved by :func:`save_checkpoint`.

    The dataset is required both to verify that the checkpoint was
    trained on the same vocabularies and to rebuild the cyclic encoder's
    per-timestamp decomposition cache.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"cannot read {manifest_path}: {exc}") from None
    for key in ("format", "variant", "rank", "dims", "tensors", "vocab_hashes"):
        if key not in manifest:
            raise CheckpointCorruptError(f"manifest missing field {key!r}")
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(f"unsupported checkpoint format {manifest['format']!r}")

    hashes = dataset.vocab.hashes()
    if manifest["vocab_hashes"] != hashes:
        raise CheckpointVocabError(
            "checkpoint vocabulary hashes do not match this dataset")

    layout = _expected_layout(manifest)
    recorded = {name: tuple(shape) for name, shape in manifest["tensors"].items()}
    if recorded != layout:
        raise CheckpointShapeError(
            f"tensor layout {recorded} does not match the declared model {layout}")

    tensors = {}
    for name, shape in layout.items():
        path = directory / f"{name}.bin"
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CheckpointCorruptError(f"cannot read {path}: {exc}") from None
        count = int(np.prod(shape))
        if len(raw) != count * 8:
            raise CheckpointShapeError(
                f"{path.name}: expected {count * 8} bytes for shape {shape}, "
                f"got {len(raw)}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        # min and max carry any NaN or inf, with no tensor-sized temporary
        tensor = tensors[name]
        if tensor.size and not (np.isfinite(tensor.min()) and np.isfinite(tensor.max())):
            raise CheckpointCorruptError(f"{path.name}: tensor {name!r} holds non-finite values")

    variant = Variant.from_string(manifest["variant"])
    rate = int(manifest.get("time_sampling_rate", 1))
    encoder = None
    if variant.uses_time:
        if manifest["encoder"] == "ste":
            encoder = SimpleTimeEncoder(tensors["time"])
        else:
            from .time_encoding import COMPONENTS, component_rows_for
            dates = resample_dates(dataset.vocab.dates, rate)
            encoder = CyclicTimeEncoder(
                {c: tensors[f"time_{c}"] for c in COMPONENTS},
                component_rows_for(dates))
    params = ModelParams(
        variant=variant,
        rank=int(manifest["rank"]),
        entity=tensors["entity"],
        relation=tensors["relation"],
        subject_proj=tensors["subject_proj"],
        relation_proj=tensors["relation_proj"],
        relation_static=tensors.get("relation_static"),
        time_proj=tensors.get("time_proj"),
        chain_proj=tensors.get("chain_proj"),
        encoder=encoder,
    )
    return params, manifest
