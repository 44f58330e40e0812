"""Filtered ranking evaluation and exploratory count exports.

Queries are tail queries over the reciprocal-augmented split, so every
original fact contributes two queries (its own and its reciprocal twin)
and both prediction directions run through the same 1-N scoring path.
The filtered protocol removes every *other* object known true for the
same ``(s, p, t)`` key anywhere in train/valid/test before ranking; the
key includes the timestamp, so a fact that only holds at another time
still competes. Equal scores are ranked with the mean tie policy, which
keeps a constant scorer at the expected middle rank instead of
flattering it.

Queries are ranked in chunks of the subject order: the forward pass
projects each distinct subject of a chunk once, and sorting puts the
queries of one subject in as few chunks as possible. Ranks are stored by
input position before any metric is averaged, so the order changes no
result, and errors name input positions and keys in input order.

A chunk holds 512 queries. Its memory is the forward cache (two
B x (k*d) float64 arrays), the B x E logits and one B x E bool buffer that
the finiteness check and both comparisons share, so evaluation peaks at
one chunk's worth whatever the split's size. Each query's rank depends
only on its own row of logits, so the chunk size changes no result. When a
split spans several chunks, a short last chunk is filled up with copies
of its first query and the copies' ranks are dropped, so every chunk
allocates arrays of one size: after the full chunks have raised glibc
malloc's mmap threshold, a smaller chunk's arrays come from its heap
instead, and whether that heap then grows depends on the process's
allocation history (in benchmark evaluation it moved the resident peak
by 16-20 MB between directory layouts at one dataset seed). The copies
cost at most one chunk's work per split.
Smaller chunks cost time: at 256 queries the ICEWS14-shaped benchmark
(2 vCPUs) ranked 1-16% slower per query than at 512, in the fuse and
logit matmuls, which pack the shared projection and entity tables once
per chunk.
"""

import csv
from dataclasses import dataclass, fields
import numpy as np

from .datasets import TargetIndex, Vocab, group_targets, resample_dates, resample_time
from .errors import DataError, MissingKeyError, NumericError


def build_filter(splits) -> TargetIndex:
    """Union of (s, p, t) -> objects groupings over the given splits."""
    return group_targets(np.concatenate([np.asarray(s).reshape(-1, 4) for s in splits]))


def rank_of(scores: np.ndarray, true_obj: int, filter_out=()) -> float:
    """Rank of ``true_obj`` with competitors in ``filter_out`` removed.

    Mean tie policy: rank = 1 + #{strictly better} + #{ties}/2, counted
    over candidates that survive filtering.
    """
    scores = np.asarray(scores, dtype=np.float64)
    row = scores.copy()
    idx = np.asarray(list(filter_out), dtype=np.int64)
    if idx.size:
        if (idx == true_obj).any():
            raise DataError("filter_out must not contain the true object")
        row[idx] = -np.inf
    s_true = row[true_obj]
    greater = int((row > s_true).sum())
    ties = int((row == s_true).sum()) - 1
    return 1.0 + greater + 0.5 * ties


@dataclass
class DirectionMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    num_queries: int

    @classmethod
    def from_ranks(cls, ranks: np.ndarray) -> "DirectionMetrics":
        if ranks.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0, 0)
        return cls(
            mrr=float(np.mean(1.0 / ranks)),
            hits1=float(np.mean(ranks <= 1.0)),
            hits3=float(np.mean(ranks <= 3.0)),
            hits10=float(np.mean(ranks <= 10.0)),
            num_queries=int(ranks.size),
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(DirectionMetrics)}


@dataclass
class RankingMetrics(DirectionMetrics):
    """Combined metrics plus per-direction sub-records."""

    tail: DirectionMetrics
    head: DirectionMetrics

    @classmethod
    def from_ranks(cls, ranks: np.ndarray, is_head: np.ndarray) -> "RankingMetrics":
        """Metrics of ``ranks``; ``is_head`` marks the reciprocal queries."""
        return cls(**vars(DirectionMetrics.from_ranks(ranks)),
                   tail=DirectionMetrics.from_ranks(ranks[~is_head]),
                   head=DirectionMetrics.from_ranks(ranks[is_head]))

    def to_dict(self) -> dict:
        return {**super().to_dict(),
                "per_direction": {"tail": self.tail.to_dict(), "head": self.head.to_dict()}}


def evaluate(model, quads: np.ndarray, flt: TargetIndex | None,
             mode: str = "filtered", batch_size: int = 512) -> RankingMetrics:
    """Rank the true object of every query in a reciprocal-augmented split.

    Dropout stays off, so evaluation is deterministic. ``tail`` metrics
    cover the original facts, ``head`` their reciprocal twins. Queries
    are ranked ``batch_size`` at a time in subject order; the default of
    512 bounds the peak memory at one such chunk (see the module notes),
    and any size gives the same ranks. Raises
    :class:`NumericError`, naming the queries' input positions, if any
    logit is non-finite. The filter is the
    :class:`TargetIndex` that :func:`build_filter` returns; the logits
    ``model.forward`` returns are masked in place.
    """
    if mode not in ("filtered", "raw"):
        raise DataError(f"unknown evaluation mode {mode!r}")
    if mode == "filtered" and not isinstance(flt, TargetIndex):
        raise DataError("filtered evaluation needs the filter index build_filter returns, "
                        f"got {type(flt).__name__}")
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    num_relations = model.params.relation.shape[0] // 2
    order = np.argsort(quads[:, 0], kind="stable")
    ranks = np.empty(quads.shape[0])
    for start in range(0, quads.shape[0], batch_size):
        rows = order[start:start + batch_size]
        chunk = rows
        if rows.size < batch_size < quads.shape[0]:  # see the module notes
            chunk = np.append(rows, np.full(batch_size - rows.size, rows[0]))
        ranks[rows] = _chunk_ranks(model, quads, chunk, flt, mode)[:rows.size]
    return RankingMetrics.from_ranks(ranks, quads[:, 1] >= num_relations)


def _chunk_ranks(model, quads: np.ndarray, rows: np.ndarray, flt: TargetIndex | None,
                 mode: str) -> np.ndarray:
    """Mean-tie ranks of the queries ``quads[rows]``; its arrays die with the call."""
    chunk = quads[rows]
    # the forward cache is dropped at once: ranking reads only the logits
    logits = model.forward(chunk[:, 0], chunk[:, 1], chunk[:, 3], training=False)[0]
    # one B x E bool buffer holds the finiteness check and then each comparison
    mask = np.isfinite(logits, out=np.empty(logits.shape, dtype=bool))
    # every comparison with NaN is false, so a NaN would rank first
    if not mask.all():
        bad = np.unique(rows[~mask.all(axis=1)])
        more = f", ... ({bad.size} in all)" if bad.size > 5 else ""
        raise NumericError("non-finite logits for queries at input positions "
                           f"{', '.join(map(str, bad[:5].tolist()))}{more}")
    true = chunk[:, 2]
    if mode == "filtered":
        try:
            hit, known = flt.lookup(chunk[:, [0, 1, 3]])
        except MissingKeyError as exc:
            raise _missing_key_error(flt, quads, exc.key) from None
        other = known != true[hit]
        logits[hit[other], known[other]] = -np.inf
    s_true = logits[np.arange(chunk.shape[0]), true][:, None]
    greater = np.greater(logits, s_true, out=mask).sum(axis=1, dtype=np.intp)
    ties = np.equal(logits, s_true, out=mask).sum(axis=1, dtype=np.intp) - 1
    return 1.0 + greater + 0.5 * ties


def _missing_key_error(flt: TargetIndex, quads: np.ndarray, key) -> DataError:
    """The error for a ``key`` that ``flt`` lacks, naming instead the first
    such key in input order, as the chunks run in subject order."""
    try:
        flt.lookup(quads[:, [0, 1, 3]])
    except MissingKeyError as exc:
        key = exc.key
    return DataError(f"no filter entry for key {key}; "
                     "the filter must be built from all splits")


# ---------------------------------------------------------------------------
# count exports
# ---------------------------------------------------------------------------

def relation_time_counts(quads: np.ndarray, num_relations: int,
                         num_timestamps: int) -> np.ndarray:
    """Fact counts per (original relation, timestamp); reciprocals folded.

    Refuses a relation index outside ``[0, 2 * num_relations)`` and a
    timestamp index outside ``[0, num_timestamps)``, whose cells would
    otherwise land in another relation's row.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    p, t = quads[:, 1], quads[:, 3]
    if p.size and not 0 <= p.min() <= p.max() < 2 * num_relations:
        raise DataError(f"relation index outside [0, {2 * num_relations})")
    if t.size and not 0 <= t.min() <= t.max() < num_timestamps:
        raise DataError(f"timestamp index outside [0, {num_timestamps})")
    cells = (p % num_relations) * num_timestamps + t
    return np.bincount(cells, minlength=num_relations * num_timestamps).astype(
        np.int64, copy=False).reshape(num_relations, num_timestamps)


def _bucket_counts(quads: np.ndarray, vocab: Vocab, rate: int) -> tuple[np.ndarray, list[str]]:
    """Fact counts per relation and bucket of ``rate`` timestamps, and each
    bucket's label: the first date it covers."""
    resampled, num_t = resample_time(quads, rate, vocab.num_timestamps)
    labels = [d.isoformat() for d in resample_dates(vocab.dates, rate)]
    return relation_time_counts(resampled, vocab.num_relations, num_t), labels


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_time_relation_heatmap(quads: np.ndarray, vocab: Vocab, path,
                                 rate: int = 1) -> np.ndarray:
    """CSV matrix of fact counts per relation and (resampled) timestamp.

    Columns are labelled with the first date each bucket covers; at
    ``rate == 1`` that is just the timestamp's own date.
    """
    counts, labels = _bucket_counts(quads, vocab, rate)
    _write_csv(path, ["relation", *labels],
               ([name, *row] for name, row in zip(vocab.relations, counts.tolist())))
    return counts


def export_time_concentration(quads: np.ndarray, vocab: Vocab, path,
                              rate: int = 1) -> np.ndarray:
    """CSV of total fact counts per (resampled) timestamp: the heatmap's column sums."""
    counts, labels = _bucket_counts(quads, vocab, rate)
    totals = counts.sum(axis=0)
    _write_csv(path, ["date", "count"], zip(labels, totals.tolist()))
    return totals
