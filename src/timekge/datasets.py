"""Quadruple dataset handling.

Datasets are directories with tab-separated ``train``/``valid``/``test``
files (a ``.txt`` or ``.tsv`` suffix is also accepted), one fact per
line: ``subject \\t predicate \\t object \\t YYYY-MM-DD``.

Parsed facts are four parallel columns (:class:`QuadrupleColumns`).
Indexed facts are int64 arrays of shape (n, 4) with columns
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, MissingKeyError, OovError

SPLIT_NAMES = ("train", "valid", "test")
# kept lines split at a time: only one block's field strings live at once
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class QuadrupleColumns:
    """Parsed facts as four parallel columns: fact ``i`` is
    ``(subjects[i], predicates[i], objects[i], dates[i])``."""

    subjects: list[str]
    predicates: list[str]
    objects: list[str]
    dates: list[dt.date]


def _split_lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_quadruples(source, origin: str = "<stream>") -> QuadrupleColumns:
    """Parse tab-separated quadruple lines into columns.

    One leading U+FEFF (a byte order mark) is dropped. Lines end at
    ``\\n``, ``\\r\\n`` or ``\\r``; blank lines are skipped and fields are
    stripped. Equal tokens share one string object. The first malformed
    line in file order, or bytes that are not UTF-8, raise
    :class:`DataError` with its 1-based number.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = len(_split_lines(exc.object[:exc.start].decode("utf-8")))
            raise DataError(f"{origin}:{lineno}: not UTF-8 text: {exc}") from None
    lines = _split_lines(source.removeprefix("\ufeff"))
    del source  # a decoded file is not needed past its lines
    kept = list(compress(lines, map(str.strip, lines)))
    errors = []  # (row, rank on that row, message)
    tabs = np.fromiter(map(str.count, kept, repeat("\t")), np.int64, len(kept))
    wrong = np.flatnonzero(tabs != 3)
    rows = int(wrong[0]) if wrong.size else len(kept)
    if rows < len(kept):
        errors.append((rows, 0, f"expected 4 tab-separated columns, got {tabs[rows] + 1}"))
    canon = {}  # one string object per distinct token; a block's own strings die with it
    tokens = [canon.setdefault(token, token) for start in range(0, rows, _BLOCK) for token in
              map(str.strip, "\t".join(kept[start:min(start + _BLOCK, rows)]).split("\t"))]
    if not all(tokens):
        errors.append((tokens.index("") // 4, 0, "empty field"))
    datestrs, dates = tokens[3::4], {}
    for text in dict.fromkeys(datestrs):
        try:
            dates[text] = dt.date.fromisoformat(text)
        except ValueError as exc:
            errors.append((datestrs.index(text), 1, f"bad date {text!r}: {exc}"))
    if errors:
        row, _, message = min(errors)
        lineno = list(compress(count(1), map(str.strip, lines)))[row]
        raise DataError(f"{origin}:{lineno}: {message}")
    del lines, kept  # so the columns are built beside the tokens alone
    return QuadrupleColumns(tokens[0::4], tokens[1::4], tokens[2::4],
                            list(map(dates.__getitem__, datestrs)))


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
    ent_index: dict[str, int] = field(init=False, repr=False)
    rel_index: dict[str, int] = field(init=False, repr=False)
    date_index: dict[dt.date, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.ent_index = {e: i for i, e in enumerate(self.entities)}
        self.rel_index = {r: i for i, r in enumerate(self.relations)}
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


def build_vocab(*splits: QuadrupleColumns) -> Vocab:
    """Vocabulary of ``splits``, given in train, valid, test order."""
    entities, relations, dates = {}, {}, set()
    for split in splits:
        tokens = split.subjects + split.objects  # interleaved in fact order: s0, o0, s1, ...
        tokens[0::2], tokens[1::2] = split.subjects, split.objects
        entities.update(dict.fromkeys(tokens))
        relations.update(dict.fromkeys(split.predicates))
        dates.update(split.dates)
    return Vocab(list(entities), list(relations), sorted(dates))


def index_quadruples(raw: QuadrupleColumns, vocab: Vocab) -> np.ndarray:
    """Order-preserving substitution of tokens by their vocab indices."""
    columns = (raw.subjects, raw.predicates, raw.objects, raw.dates)
    lookups = (vocab.ent_index, vocab.rel_index, vocab.ent_index, vocab.date_index)
    n = len(columns[0])
    # one output filled in place: stacking four column temporaries instead
    # left ~30 MB more resident at a later evaluation's peak (glibc heap holes)
    out = np.empty((n, 4), dtype=np.int64)
    try:
        for j, (index, column) in enumerate(zip(lookups, columns)):
            out[:, j] = np.fromiter(map(index.__getitem__, column), np.int64, n)
    except KeyError:  # name the first unknown token in row-major (s, p, o, t) order
        known = np.stack([np.fromiter(map(index.__contains__, column), bool, n)
                          for index, column in zip(lookups, columns)], axis=1)
        row, j = np.argwhere(~known)[0]
        token = columns[j][row]
        shown = token.isoformat() if j == 3 else repr(token)
        kind = ("entity", "relation", "entity", "date")[j]
        raise OovError(f"{kind} {shown} not in vocabulary") from None
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

    Returns the rewritten facts as a new array and the new timestamp count
    ``ceil(num_timestamps / rate)``; ``rate == 1`` is the identity.
    """
    if rate < 1:
        raise DataError(f"sampling rate must be >= 1, got {rate}")
    out = np.array(quads, dtype=np.int64).reshape(-1, 4)
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
    return [dates[j] for j in range(0, len(dates), rate)]


class TargetIndex:
    """Immutable ``(s, p, t) -> objects`` index over facts, stored as CSR.

    ``key_array`` (n, 3) holds the distinct keys in lexicographic order;
    the sorted unique objects of key ``i`` are
    ``objects[offsets[i]:offsets[i + 1]]``. ``idx[(s, p, t)]`` returns that
    (read-only) slice and :meth:`lookup` resolves a whole batch of keys at
    once.

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

    __iter__ = None  # a lookup table, not a collection: iter() and ``in`` raise TypeError

    def __len__(self) -> int:
        return self.key_array.shape[0]

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position of each ``(s, p, t)`` row of ``keys`` and whether it is indexed."""
        if not len(self):
            return np.zeros(keys.shape[0], dtype=np.int64), np.zeros(keys.shape[0], dtype=bool)
        upper = np.array(self.bounds) - 1
        inside = ((keys >= 0) & (keys <= upper)).all(axis=1)
        codes = self._pack(np.clip(keys, 0, upper))
        pos = np.minimum(np.searchsorted(self._codes, codes), len(self) - 1)
        return pos, inside & (self._codes[pos] == codes)

    def __getitem__(self, key) -> np.ndarray:
        try:
            s, p, t = map(operator.index, key)
            keys = np.array([[s, p, t]], dtype=np.int64)
        except (TypeError, ValueError, OverflowError):  # not three integers of int64
            raise KeyError(key) from None
        (i,), (found,) = self._find(keys)
        if not found:
            raise KeyError(key)
        return self.objects[self.offsets[i]:self.offsets[i + 1]]

    def lookup(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Objects of a batch of ``(s, p, t)`` rows, flattened.

        Returns ``(rows, objects)``: ``objects[j]`` is known for key
        ``keys[rows[j]]``, in batch order and sorted within each key.
        Raises :class:`MissingKeyError` naming the first key not indexed.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        pos, found = self._find(keys)
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
        if not raw["train"].subjects:
            raise DataError(f"train split in {directory} is empty")
        vocab = build_vocab(raw["train"], raw["valid"], raw["test"])
        return cls(
            vocab=vocab,
            train=index_quadruples(raw["train"], vocab),
            valid=index_quadruples(raw["valid"], vocab),
            test=index_quadruples(raw["test"], vocab),
        )

    def stats(self) -> dict:
        dates = self.vocab.dates
        return {
            "num_entities": self.vocab.num_entities,
            "num_relations": self.vocab.num_relations,
            "num_timestamps": self.vocab.num_timestamps,
            "num_train": len(self.train),
            "num_valid": len(self.valid),
            "num_test": len(self.test),
            "date_min": dates[0].isoformat() if dates else None,
            "date_max": dates[-1].isoformat() if dates else None,
        }


def synthetic_dataset_dir() -> Path:
    """Location of the bundled synthetic smoke-test dataset."""
    return Path(importlib.resources.files("timekge") / "assets" / "synthetic")
