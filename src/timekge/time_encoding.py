"""Timestamp encoders.

Two interchangeable encoders produce the time embedding consumed by the
temporal scoring variants:

* simple encoding: one independent embedding row per timestamp index;
* cyclic encoding: a calendar date is decomposed into 14 positions
  within nested recurring cycles (day of week, day/week of month,
  day/week/month of season, day/week/month/season of year, and the four
  base-10 digits of the year), and the embedding is the sum of one
  learned row per component.

Conventions are zero-based everywhere: the first day of a month is
``day_of_month == 0``, Monday is ``day_of_week == 0``, and seasons are
calendar quarters (months 0-2 form season 0) so that every seasonal
component is an exact function of month and day.
"""

import datetime as dt
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError


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


def encode_simple(t: int, table: np.ndarray) -> np.ndarray:
    """Row ``t`` of a per-timestamp embedding table."""
    if not 0 <= t < table.shape[0]:
        raise IndexError(f"timestamp index {t} out of range [0, {table.shape[0]})")
    return table[t]


def encode_cyclic(indices: CycleIndices, tables: dict[str, np.ndarray]) -> np.ndarray:
    """Sum of the 14 component rows selected by ``indices``."""
    missing = [c for c in COMPONENTS if c not in tables]
    if missing:
        raise ShapeError(f"missing cycle tables: {missing}")
    out = None
    for comp, idx in zip(COMPONENTS, indices):
        tab = tables[comp]
        if not 0 <= idx < tab.shape[0]:
            raise IndexError(
                f"{comp} index {idx} out of range [0, {tab.shape[0]})"
            )
        out = tab[idx].copy() if out is None else out + tab[idx]
    return out


class SimpleTimeEncoder:
    """One independent embedding row per timestamp index."""

    kind = "ste"

    def __init__(self, table: np.ndarray):
        if table.ndim != 2:
            raise ShapeError(f"time table must be 2-d, got shape {table.shape}")
        self.table = table

    @classmethod
    def create(cls, num_timestamps: int, dim: int, rng: np.random.Generator,
               scale: float = 0.05) -> "SimpleTimeEncoder":
        return cls(rng.normal(0.0, scale, size=(num_timestamps, dim)))

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def num_timestamps(self) -> int:
        return self.table.shape[0]

    def encode(self, t: int) -> np.ndarray:
        return encode_simple(t, self.table)

    def encode_batch(self, timestamps) -> np.ndarray:
        ts = np.asarray(timestamps, dtype=np.int64)
        if ts.size and (ts.min() < 0 or ts.max() >= self.table.shape[0]):
            raise IndexError("timestamp index out of range")
        return self.table[ts]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"time": self.table}

    def scatter_grad(self, timestamps, upstream: np.ndarray,
                     grads: dict[str, np.ndarray]) -> None:
        """Accumulate d(loss)/d(time rows) into ``grads['time']``."""
        ts = np.asarray(timestamps, dtype=np.int64)
        np.add.at(grads["time"], ts, upstream)


class CyclicTimeEncoder:
    """Summed cycle-component embeddings, decomposition cached per timestamp.

    ``component_rows[t, j]`` is the row of component ``COMPONENTS[j]``
    selected by timestamp index ``t``; it is a pure function of the
    vocabulary's date list and is computed once.
    """

    kind = "cte"

    def __init__(self, tables: dict[str, np.ndarray], component_rows: np.ndarray):
        dims = {tab.shape[1] for tab in tables.values()}
        if set(tables) != set(COMPONENTS) or len(dims) != 1:
            raise ShapeError("cycle tables must cover all 14 components with one shared dim")
        if component_rows.ndim != 2 or component_rows.shape[1] != len(COMPONENTS):
            raise ShapeError(f"component_rows must be (T, 14), got {component_rows.shape}")
        self.tables = {c: tables[c] for c in COMPONENTS}
        self.component_rows = component_rows

    @classmethod
    def create(cls, dates: Sequence[dt.date], dim: int, rng: np.random.Generator,
               scale: float = 0.05) -> "CyclicTimeEncoder":
        tables = {
            comp: rng.normal(0.0, scale, size=(card, dim))
            for comp, card in _CARDINALITIES.items()
        }
        return cls(tables, component_rows_for(dates))

    @property
    def dim(self) -> int:
        return self.tables["day_of_week"].shape[1]

    @property
    def num_timestamps(self) -> int:
        return self.component_rows.shape[0]

    def encode(self, t: int) -> np.ndarray:
        if not 0 <= t < self.component_rows.shape[0]:
            raise IndexError(f"timestamp index {t} out of range")
        rows = self.component_rows[t]
        return encode_cyclic(CycleIndices(*rows.tolist()), self.tables)

    def encode_batch(self, timestamps) -> np.ndarray:
        ts = np.asarray(timestamps, dtype=np.int64)
        if ts.size and (ts.min() < 0 or ts.max() >= self.component_rows.shape[0]):
            raise IndexError("timestamp index out of range")
        out = np.zeros((ts.shape[0], self.dim))
        rows = self.component_rows[ts]
        for j, comp in enumerate(COMPONENTS):
            out += self.tables[comp][rows[:, j]]
        return out

    def tensors(self) -> dict[str, np.ndarray]:
        return {f"time_{c}": self.tables[c] for c in COMPONENTS}

    def scatter_grad(self, timestamps, upstream: np.ndarray,
                     grads: dict[str, np.ndarray]) -> None:
        """Route the time-embedding gradient additively to all 14 rows."""
        ts = np.asarray(timestamps, dtype=np.int64)
        rows = self.component_rows[ts]
        for j, comp in enumerate(COMPONENTS):
            np.add.at(grads[f"time_{comp}"], rows[:, j], upstream)


def component_rows_for(dates: Iterable[dt.date]) -> np.ndarray:
    """Precompute the (T, 14) component-index matrix for a date list."""
    rows = [decompose_date(d) for d in dates]
    if not rows:
        return np.zeros((0, len(COMPONENTS)), dtype=np.int64)
    return np.array(rows, dtype=np.int64)
