"""Timestamp encoders.

A date's embedding is the sum of one learned row per cycle component.
Two encoders apply that rule:

* cyclic encoding: a calendar date is decomposed into 14 positions
  within nested recurring cycles (day of week, day/week of month,
  day/week/month of season, day/week/month/season of year, and the four
  base-10 digits of the year);
* simple encoding: the one-component case, whose one component is the
  timestamp index itself, so every timestamp has an independent row.

Both run :class:`TimeEncoder`: the component tables are stacked into one
table (627 rows for the cyclic one) whose rows a timestamp selects and
sums. :meth:`TimeEncoder.tensors` names the row ranges ``time`` or
``time_<component>``, so parameter layouts, optimizer state and
checkpoints keep one tensor (and one file) per component.

Conventions are zero-based everywhere: the first day of a month is
``day_of_month == 0``, Monday is ``day_of_week == 0``, and seasons are
calendar quarters (months 0-2 form season 0) so that every seasonal
component is an exact function of month and day.
"""

import datetime as dt
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ShapeError
from .kernels import _CHUNK, take_rows


class CycleIndices(NamedTuple):
    """Position of one calendar date inside each recurring cycle."""

    day_of_week: int
    day_of_month: int
    week_of_month: int
    day_of_season: int
    week_of_season: int
    month_of_season: int
    day_of_year: int
    week_of_year: int
    month_of_year: int
    season_of_year: int
    year_units: int
    year_decades: int
    year_centuries: int
    year_millennia: int


#: Canonical component order; embedding tables, CSV columns and gradient
#: scatter all follow it.
COMPONENTS: tuple[str, ...] = CycleIndices._fields

#: Number of distinct values each component can take. 92 days covers the
#: longest quarter (Jul-Sep), 366 days and 53 weeks cover leap years.
_CARDINALITIES = {
    "day_of_week": 7,
    "day_of_month": 31,
    "week_of_month": 5,
    "day_of_season": 92,
    "week_of_season": 14,
    "month_of_season": 3,
    "day_of_year": 366,
    "week_of_year": 53,
    "month_of_year": 12,
    "season_of_year": 4,
    "year_units": 10,
    "year_decades": 10,
    "year_centuries": 10,
    "year_millennia": 10,
}


def cycle_cardinalities() -> dict[str, int]:
    """Cardinality of every cycle component, in canonical order."""
    return dict(_CARDINALITIES)


def decompose_date(date: dt.date) -> CycleIndices:
    """Decompose a Gregorian date into its 14 cycle positions.

    ``datetime.date`` already restricts years to 1..9999, which is the
    domain the four year-digit components cover.
    """
    if not isinstance(date, dt.date):
        raise TypeError(f"expected datetime.date, got {type(date).__name__}")
    month0 = date.month - 1
    day0 = date.day - 1
    season = month0 // 3
    season_start = dt.date(date.year, 3 * season + 1, 1)
    day_of_season = (date - season_start).days
    day_of_year = (date - dt.date(date.year, 1, 1)).days
    year = date.year
    return CycleIndices(
        day_of_week=date.weekday(),
        day_of_month=day0,
        week_of_month=day0 // 7,
        day_of_season=day_of_season,
        week_of_season=day_of_season // 7,
        month_of_season=month0 % 3,
        day_of_year=day_of_year,
        week_of_year=day_of_year // 7,
        month_of_year=month0,
        season_of_year=season,
        year_units=year % 10,
        year_decades=(year // 10) % 10,
        year_centuries=(year // 100) % 10,
        year_millennia=(year // 1000) % 10,
    )


class TimeEncoder:
    """Per timestamp, the sum of one row per component of a stacked table.

    Component ``j`` owns rows ``offsets[j]:offsets[j + 1]`` of ``table``
    and is the tensor ``names[j]``; ``component_rows[t, j]`` is the row of
    component ``j`` that timestamp index ``t`` selects, counted within that
    component.
    """

    def __init__(self, table: np.ndarray, component_rows: np.ndarray,
                 names: tuple[str, ...], sizes: Iterable[int]):
        self.table = table
        self.component_rows = component_rows
        self.names = names
        self.offsets = np.cumsum([0, *sizes])

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def _rows(self, timestamps) -> np.ndarray:
        """(B, C) rows of the stacked table that the timestamps select."""
        ts = np.asarray(timestamps, dtype=np.int64)
        if ts.size and (ts.min() < 0 or ts.max() >= self.component_rows.shape[0]):
            raise IndexError("timestamp index out of range")
        return self.component_rows[ts] + self.offsets[:-1]

    def encode_batch(self, timestamps) -> np.ndarray:
        """Sum of the selected rows, in component order, per timestamp.

        The selected rows are gathered and summed a cache-sized block of
        timestamps at a time, so the (B, C, d) gather never exists whole.
        """
        rows = self._rows(timestamps)
        out = np.empty((rows.shape[0], self.dim))
        block = max(1, _CHUNK // (len(self.names) * self.dim or 1))
        scratch = np.empty(min(rows.shape[0], block) * len(self.names) * self.dim)
        for start in range(0, rows.shape[0], block):
            take_rows(self.table, rows[start:start + block], scratch).sum(
                axis=1, out=out[start:start + block])
        return out

    def tensors(self) -> dict[str, np.ndarray]:
        """One named row-slice view of the stacked table per component."""
        return dict(zip(self.names, np.split(self.table, self.offsets[1:-1])))

    def scatter_grad(self, timestamps, upstream: np.ndarray,
                     grads: dict[str, np.ndarray]) -> None:
        """Set the gradient of every tensor, routing each upstream row
        additively to the rows its timestamp selects."""
        grad = np.zeros_like(self.table)
        np.add.at(grad, self._rows(timestamps), upstream[:, None, :])
        grads.update(zip(self.names, np.split(grad, self.offsets[1:-1])))


class SimpleTimeEncoder(TimeEncoder):
    """One independent embedding row per timestamp index: one component."""

    kind = "ste"
    # perfbench traces each class's own methods, so each binds the shared ones
    encode_batch, scatter_grad = TimeEncoder.encode_batch, TimeEncoder.scatter_grad

    def __init__(self, table: np.ndarray):
        if table.ndim != 2:
            raise ShapeError(f"time table must be 2-d, got shape {table.shape}")
        super().__init__(table, np.arange(table.shape[0])[:, None], ("time",), table.shape[:1])


class CyclicTimeEncoder(TimeEncoder):
    """The 14 cycle components, stacked in canonical order; ``component_rows``
    is a function of the vocabulary's date list, computed once."""

    kind = "cte"
    # perfbench traces each class's own methods, so each binds the shared ones
    encode_batch, scatter_grad = TimeEncoder.encode_batch, TimeEncoder.scatter_grad

    def __init__(self, tables: dict[str, np.ndarray], component_rows: np.ndarray):
        if set(tables) != set(COMPONENTS):
            raise ShapeError("cycle tables must cover exactly the 14 components")
        dim = tables[COMPONENTS[0]].shape[-1]
        for comp, card in _CARDINALITIES.items():
            # once stacked, a table of the wrong length would read its neighbour's rows
            if tables[comp].shape != (card, dim):
                raise ShapeError(f"{comp} table has shape {tables[comp].shape}, "
                                 f"expected {(card, dim)}")
        if component_rows.ndim != 2 or component_rows.shape[1] != len(COMPONENTS):
            raise ShapeError(f"component_rows must be (T, 14), got {component_rows.shape}")
        super().__init__(np.concatenate([tables[c] for c in COMPONENTS]), component_rows,
                         tuple(f"time_{c}" for c in COMPONENTS), _CARDINALITIES.values())


#: The encoder names that configs, manifests and ``--encoder`` use.
ENCODERS = (SimpleTimeEncoder.kind, CyclicTimeEncoder.kind)


def component_rows_for(dates: Iterable[dt.date]) -> np.ndarray:
    """Precompute the (T, 14) component-index matrix for a date list."""
    rows = [decompose_date(d) for d in dates]
    if not rows:
        return np.zeros((0, len(COMPONENTS)), dtype=np.int64)
    return np.array(rows, dtype=np.int64)
