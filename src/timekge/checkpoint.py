"""The checkpoint format: one manifest plus one raw float64 file per tensor.

A checkpoint directory holds ``manifest.json`` (format, model shape,
vocabulary hashes, seed and run settings) and ``<name>.bin`` for every
tensor, little-endian float64 in C order. A save stages the files beside
the directory and swaps them in once all are on disk; a load checks the
manifest against the dataset before it reads any tensor.
"""

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from .datasets import Dataset, resample_dates
from .errors import CheckpointCorruptError, CheckpointShapeError, CheckpointVocabError
from .scoring import ModelParams, Variant, param_layout

RNG_ALGORITHM = "numpy-pcg64"
CHECKPOINT_FORMAT = "timekge-checkpoint-v1"


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
    hold a checkpoint manifest. Each tensor is written from its own buffer
    when it is C-contiguous native float64, and through one converted copy
    otherwise.
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
                fh.write(np.ascontiguousarray(tensor, dtype="<f8"))
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
# The manifest fields a checkpoint may omit, and the value an omitted one
# takes; a temporal variant cannot omit ``encoder``.
_OPTIONAL_FIELDS = {"encoder": None, "num_timestamps": None, "time_sampling_rate": 1}


def _check_fields(table: dict, fields: dict, prefix: str = "") -> None:
    for key, types in fields.items():
        name = prefix + key
        if key not in table:
            raise CheckpointCorruptError(f"manifest missing field {name!r}")
        found = type(table[key])
        if found not in types:
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise CheckpointCorruptError(
                f"manifest field {name!r} must be {expected}, got {_JSON_TYPES[found]}")


def _check_manifest(manifest) -> None:
    """Fill in omitted optional fields; refuse a missing field, one of the wrong
    JSON type, or a temporal variant without an encoder."""
    if type(manifest) is not dict:
        raise CheckpointCorruptError("manifest must be a JSON object")
    for key, default in _OPTIONAL_FIELDS.items():
        manifest.setdefault(key, default)
    _check_fields(manifest, _MANIFEST_FIELDS)
    _check_fields(manifest["dims"], _DIMS_FIELDS, "dims.")
    if manifest["encoder"] is None and Variant.from_string(manifest["variant"]).uses_time:
        raise CheckpointCorruptError(
            f"manifest field 'encoder' is missing or null, which variant "
            f"{manifest['variant']!r} needs")
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
    # ValueError covers bad JSON and bad UTF-8; deep nesting raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointCorruptError(f"cannot read {manifest_path}: {exc}") from None
    _check_manifest(manifest)
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(f"unsupported checkpoint format {manifest['format']!r}")

    hashes = dataset.vocab.hashes()
    if manifest["vocab_hashes"] != hashes:
        raise CheckpointVocabError(
            "checkpoint vocabulary hashes do not match this dataset")
    rate = manifest["time_sampling_rate"]
    if rate < 1:
        raise CheckpointCorruptError(
            f"manifest field 'time_sampling_rate' must be >= 1, got {rate}")
    dates = resample_dates(dataset.vocab.dates, rate)
    # the dataset is the one source of the counts; the manifest must agree with it
    counts = {"num_entities": dataset.vocab.num_entities,
              "num_relations": dataset.vocab.num_relations, "num_timestamps": len(dates)}
    for name, count in counts.items():
        if manifest[name] not in (None, count):
            raise CheckpointCorruptError(
                f"manifest field {name!r} is {manifest[name]}, but the dataset "
                f"(at time sampling rate {rate}) gives {count}")

    dims = manifest["dims"]
    layout = param_layout(
        manifest["variant"], counts["num_entities"], counts["num_relations"],
        manifest["rank"], dims["entity"], dims["relation"], dims["time"],
        manifest["encoder"], counts["num_timestamps"])
    recorded = {name: tuple(shape) for name, shape in manifest["tensors"].items()}
    if recorded != layout:
        raise CheckpointShapeError(
            f"tensor layout {recorded} does not match the declared model {layout}")

    tensors = {name: _read_tensor(directory / f"{name}.bin", name, shape)
               for name, shape in layout.items()}

    params = ModelParams.from_tensors(Variant.from_string(manifest["variant"]),
                                      manifest["rank"], tensors,
                                      manifest["encoder"], dates)
    return params, manifest


def _read_tensor(path: Path, name: str, shape: tuple) -> np.ndarray:
    """The tensor in ``path``, read straight into its final array.

    The file's size is checked before the array is allocated, so a shape
    the file does not hold allocates nothing, and the tensor is held once:
    the file is read unbuffered, with no bytes object or buffer beside it.
    """
    nbytes = math.prod(shape) * 8
    try:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != nbytes:
                raise CheckpointShapeError(
                    f"{path.name}: expected {nbytes} bytes for shape {shape}, got {size}")
            tensor = np.empty(shape, dtype="<f8")
            view, read = tensor.reshape(-1).view(np.uint8), 0
            while read < nbytes and (n := fh.readinto(view[read:])):  # a read may stop short
                read += n
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read {path}: {exc}") from None
    if read != nbytes:  # the file shrank after its size was read
        raise CheckpointShapeError(
            f"{path.name}: expected {nbytes} bytes for shape {shape}, got {read}")
    # min and max carry any NaN or inf, with no tensor-sized temporary
    if tensor.size and not (np.isfinite(tensor.min()) and np.isfinite(tensor.max())):
        raise CheckpointCorruptError(f"{path.name}: tensor {name!r} holds non-finite values")
    return tensor.astype(np.float64, copy=False)
