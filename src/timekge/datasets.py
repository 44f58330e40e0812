"""Quadruple dataset handling.

Datasets are directories with tab-separated ``train``/``valid``/``test``
files (a ``.txt`` or ``.tsv`` suffix is also accepted), one fact per
line: ``subject \\t predicate \\t object \\t YYYY-MM-DD``.

Indexed facts are stored as int64 arrays of shape (n, 4) with columns
``s, p, o, t``. Head queries are served through reciprocal relations:
augmentation appends ``(o, p + R, s, t)`` for every fact, where ``R`` is
the number of original relations, so a single tail-prediction code path
answers both query directions.
"""

import datetime as dt
import hashlib
import importlib.resources
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, MissingKeyError, OovError

SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class RawQuadruple:
    subject: str
    predicate: str
    object: str
    date: dt.date


def _iter_lines(source) -> Iterable[str]:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return data.splitlines()
    if isinstance(source, bytes):
        return source.decode("utf-8").splitlines()
    if isinstance(source, str):
        return source.splitlines()
    return source


def parse_quadruples(source, origin: str = "<stream>") -> list[RawQuadruple]:
    """Parse tab-separated quadruple lines; empty lines are skipped.

    Malformed lines raise :class:`DataError` with their 1-based number.
    """
    out = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError(
                f"{origin}:{lineno}: expected 4 tab-separated columns, got {len(fields)}"
            )
        subject, predicate, obj, datestr = (f.strip() for f in fields)
        if not (subject and predicate and obj and datestr):
            raise DataError(f"{origin}:{lineno}: empty field")
        try:
            date = dt.date.fromisoformat(datestr)
        except ValueError as exc:
            raise DataError(f"{origin}:{lineno}: bad date {datestr!r}: {exc}") from None
        out.append(RawQuadruple(subject, predicate, obj, date))
    return out


@dataclass
class Vocab:
    """Bijections between tokens and indices.

    Entities and relations are indexed by first occurrence (train, then
    valid, then test); timestamps are the sorted set of observed dates.
    The relation index space covers originals only; reciprocals live at
    ``p + num_relations`` and are never stored here.
    """

    entities: list[str]
    relations: list[str]
    dates: list[dt.date]
    ent_index: dict[str, int] = field(repr=False, default_factory=dict)
    rel_index: dict[str, int] = field(repr=False, default_factory=dict)
    date_index: dict[dt.date, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.ent_index:
            self.ent_index = {e: i for i, e in enumerate(self.entities)}
        if not self.rel_index:
            self.rel_index = {r: i for i, r in enumerate(self.relations)}
        if not self.date_index:
            self.date_index = {d: i for i, d in enumerate(self.dates)}

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_timestamps(self) -> int:
        return len(self.dates)

    def relation_label(self, p: int) -> str:
        """Name of relation index ``p``, reciprocals suffixed ``_inverse``."""
        if p < self.num_relations:
            return self.relations[p]
        return self.relations[p - self.num_relations] + "_inverse"

    def hashes(self) -> dict[str, str]:
        def h(tokens: Iterable[str]) -> str:
            return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()

        return {
            "entities": h(self.entities),
            "relations": h(self.relations),
            "timestamps": h(d.isoformat() for d in self.dates),
        }


def build_vocab(train: Sequence[RawQuadruple],
                valid: Sequence[RawQuadruple] = (),
                test: Sequence[RawQuadruple] = ()) -> Vocab:
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    dates = set()
    for quad in (*train, *valid, *test):
        for token in (quad.subject, quad.object):
            if token not in entities:
                entities[token] = len(entities)
        if quad.predicate not in relations:
            relations[quad.predicate] = len(relations)
        dates.add(quad.date)
    return Vocab(list(entities), list(relations), sorted(dates))


def index_quadruples(raw: Sequence[RawQuadruple], vocab: Vocab) -> np.ndarray:
    """Order-preserving substitution of tokens by their vocab indices."""
    out = np.empty((len(raw), 4), dtype=np.int64)
    for i, quad in enumerate(raw):
        try:
            out[i, 0] = vocab.ent_index[quad.subject]
        except KeyError:
            raise OovError(f"entity {quad.subject!r} not in vocabulary") from None
        try:
            out[i, 1] = vocab.rel_index[quad.predicate]
        except KeyError:
            raise OovError(f"relation {quad.predicate!r} not in vocabulary") from None
        try:
            out[i, 2] = vocab.ent_index[quad.object]
        except KeyError:
            raise OovError(f"entity {quad.object!r} not in vocabulary") from None
        try:
            out[i, 3] = vocab.date_index[quad.date]
        except KeyError:
            raise OovError(f"date {quad.date.isoformat()} not in vocabulary") from None
    return out


def augment_reciprocal(quads: np.ndarray, num_relations: int) -> np.ndarray:
    """Append the reciprocal fact ``(o, p + R, s, t)`` for every fact.

    Refuses input that already contains reciprocal indices, which would
    silently double-augment.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    if quads.size and quads[:, 1].max() >= num_relations:
        bad = int(quads[:, 1].max())
        raise DataError(
            f"relation index {bad} >= {num_relations}: input is already augmented"
        )
    recip = quads[:, [2, 1, 0, 3]].copy()
    recip[:, 1] += num_relations
    return np.concatenate([quads, recip], axis=0)


def resample_time(quads: np.ndarray, rate: int, num_timestamps: int
                  ) -> tuple[np.ndarray, int]:
    """Merge every ``rate`` consecutive timestamp indices into one bucket.

    Returns the rewritten facts and the new timestamp count
    ``ceil(num_timestamps / rate)``; ``rate == 1`` is the identity.
    """
    if rate < 1:
        raise DataError(f"sampling rate must be >= 1, got {rate}")
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    if rate == 1:
        return quads.copy(), num_timestamps
    out = quads.copy()
    out[:, 3] //= rate
    return out, -(-num_timestamps // rate)


def prepare_splits(dataset: "Dataset", rate: int = 1) -> tuple[dict[str, np.ndarray], int]:
    """The facts a model trains and ranks on: every split reciprocal-augmented,
    then resampled by ``rate``; also returns the resampled timestamp count."""
    vocab = dataset.vocab
    splits = {}
    for name in SPLIT_NAMES:
        splits[name], num_timestamps = resample_time(
            augment_reciprocal(getattr(dataset, name), vocab.num_relations),
            rate, vocab.num_timestamps)
    return splits, num_timestamps


def resample_dates(dates: Sequence[dt.date], rate: int) -> list[dt.date]:
    """Representative date per bucket: the first date each bucket covers."""
    if rate < 1:
        raise DataError(f"sampling rate must be >= 1, got {rate}")
    return [dates[j] for j in range(0, len(dates), rate)]


class TargetIndex(Mapping):
    """Immutable ``(s, p, t) -> objects`` index over facts, stored as CSR.

    ``key_array`` (n, 3) holds the distinct keys in lexicographic order;
    the sorted unique objects of key ``i`` are
    ``objects[offsets[i]:offsets[i + 1]]``. As a mapping, ``idx[(s, p, t)]``
    returns that (read-only) slice and iteration yields key tuples in
    order. :meth:`lookup` resolves a whole batch of keys at once.

    Keys are found by binary search over ``(s * P + p) * T + t``, where
    ``bounds = (S, P, T)`` exceed every component seen at build time. A
    component outside its bound is never found, so no key aliases another.
    """

    def __init__(self, quads):
        quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
        if quads.size and quads.min() < 0:
            raise DataError("facts hold a negative index")
        spt = quads[:, [0, 1, 3]]
        self.bounds = tuple(int(b) + 1 for b in spt.max(axis=0)) if quads.size else (0, 0, 0)
        if math.prod(self.bounds) > np.iinfo(np.int64).max:
            raise DataError(f"(s, p, t) bounds {self.bounds} overflow int64 key packing")
        codes = self._pack(spt)
        order = np.lexsort((quads[:, 2], codes))
        codes, objects = codes[order], quads[order, 2]
        fresh = np.ones(codes.size, dtype=bool)  # first of each (key, object)
        fresh[1:] = (codes[1:] != codes[:-1]) | (objects[1:] != objects[:-1])
        codes, objects, order = codes[fresh], objects[fresh], order[fresh]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        self._codes = codes[starts]
        self.key_array = spt[order[starts]]
        self.offsets = np.append(starts, codes.size)
        self.objects = objects
        for array in (self._codes, self.key_array, self.offsets, self.objects):
            array.flags.writeable = False

    def _pack(self, spt: np.ndarray) -> np.ndarray:
        _, num_p, num_t = self.bounds
        return (spt[:, 0] * num_p + spt[:, 1]) * num_t + spt[:, 2]

    def __len__(self) -> int:
        return self.key_array.shape[0]

    def __iter__(self):
        return map(tuple, self.key_array.tolist())

    def __getitem__(self, key) -> np.ndarray:
        try:
            s, p, t = (operator.index(k) for k in key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        num_s, num_p, num_t = self.bounds
        if not (0 <= s < num_s and 0 <= p < num_p and 0 <= t < num_t):
            raise KeyError(key)
        code = (s * num_p + p) * num_t + t
        i = int(np.searchsorted(self._codes, code))
        if i == len(self) or self._codes[i] != code:
            raise KeyError(key)
        return self.objects[self.offsets[i]:self.offsets[i + 1]]

    def lookup(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Objects of a batch of ``(s, p, t)`` rows, flattened.

        Returns ``(rows, objects)``: ``objects[j]`` is known for key
        ``keys[rows[j]]``, in batch order and sorted within each key.
        Raises :class:`MissingKeyError` naming the first key not indexed.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        found = np.zeros(keys.shape[0], dtype=bool)
        pos = np.zeros(keys.shape[0], dtype=np.int64)
        if len(self):
            upper = np.array(self.bounds) - 1
            inside = ((keys >= 0) & (keys <= upper)).all(axis=1)
            codes = self._pack(np.clip(keys, 0, upper))
            pos = np.minimum(np.searchsorted(self._codes, codes), len(self) - 1)
            found = inside & (self._codes[pos] == codes)
        if not found.all():
            raise MissingKeyError(tuple(keys[np.argmin(found)].tolist()))
        starts = self.offsets[pos]
        counts = self.offsets[pos + 1] - starts
        rows = np.repeat(np.arange(keys.shape[0]), counts)
        # flat position = start of the row's key + rank within the row
        flat = np.arange(rows.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return rows, self.objects[flat]


def group_targets(quads: np.ndarray) -> TargetIndex:
    """Group facts by ``(s, p, t)``; values are sorted unique object arrays."""
    return TargetIndex(quads)


def dataset_stats(vocab: Vocab, train, valid, test) -> dict:
    return {
        "num_entities": vocab.num_entities,
        "num_relations": vocab.num_relations,
        "num_timestamps": vocab.num_timestamps,
        "num_train": len(train),
        "num_valid": len(valid),
        "num_test": len(test),
        "date_min": vocab.dates[0].isoformat() if vocab.dates else None,
        "date_max": vocab.dates[-1].isoformat() if vocab.dates else None,
    }


def _find_split(directory: Path, name: str) -> Path:
    for candidate in (name, f"{name}.txt", f"{name}.tsv"):
        path = directory / candidate
        if path.is_file():
            return path
    raise DataError(f"no {name} file in {directory}")


@dataclass
class Dataset:
    """A dataset directory in indexed form; facts are not yet augmented."""

    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @classmethod
    def from_dir(cls, directory) -> "Dataset":
        directory = Path(directory)
        if not directory.is_dir():
            raise DataError(f"dataset directory {directory} does not exist")
        raw = {}
        for name in SPLIT_NAMES:
            path = _find_split(directory, name)
            with open(path, "rb") as fh:
                raw[name] = parse_quadruples(fh, origin=str(path))
        if not raw["train"]:
            raise DataError(f"train split in {directory} is empty")
        vocab = build_vocab(raw["train"], raw["valid"], raw["test"])
        return cls(
            vocab=vocab,
            train=index_quadruples(raw["train"], vocab),
            valid=index_quadruples(raw["valid"], vocab),
            test=index_quadruples(raw["test"], vocab),
        )

    def stats(self) -> dict:
        return dataset_stats(self.vocab, self.train, self.valid, self.test)


def synthetic_dataset_dir() -> Path:
    """Location of the bundled synthetic smoke-test dataset."""
    return Path(importlib.resources.files("timekge") / "assets" / "synthetic")
