#!/usr/bin/env python3
"""Cycle-aware timestamp decomposition and the two time encoders.

A calendar date sits inside many recurring cycles at once: a position in
its week, month, season, year, and the base-10 digits of the year
itself. The cyclic encoder turns each of those 14 positions into an
embedding-table row and sums them, so dates that share a cycle position
share parameters. The simple encoder is the one-component case of the
same rule: its one component is the timestamp index, so every timestamp
has its own independent row.
"""

import datetime as dt

import numpy as np

from timekge import COMPONENTS, cycle_cardinalities, decompose_date, init_params

# --- the 14 components --------------------------------------------------------
print("component cardinalities:")
for name, card in cycle_cardinalities().items():
    print(f"  {name:<18} {card}")

# --- decomposing dates -----------------------------------------------------------
for day in (dt.date(2014, 1, 1), dt.date(2014, 9, 30), dt.date(2012, 2, 29)):
    c = decompose_date(day)
    print(f"\n{day}:")
    print(f"  weekday {c.day_of_week} (Monday=0), day {c.day_of_month} of month,"
          f" day {c.day_of_season} of season {c.season_of_year}")
    print(f"  day {c.day_of_year} / week {c.week_of_year} of year;"
          f" year digits {c.year_millennia}{c.year_centuries}"
          f"{c.year_decades}{c.year_units}")

# Dates seven days apart always share the weekday component:
a, b = dt.date(2014, 3, 3), dt.date(2014, 3, 10)
print(f"\n{a} and {b} share weekday index:",
      decompose_date(a).day_of_week == decompose_date(b).day_of_week)

# --- the encoders ---------------------------------------------------------------
# A temporal model's parameters carry its encoder; a one-entity model is
# enough to get one.
dates = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(30)]
rng = np.random.default_rng(0)
shape = dict(num_entities=1, num_relations=1, rank=1, dim_entity=6, rng=rng)
simple = init_params("t", encoder="ste", num_timestamps=len(dates), **shape).encoder
cyclic = init_params("t", encoder="cte", dates=dates, **shape).encoder

print("\nsimple encoder parameters:",
      sum(t.size for t in simple.tensors().values()))
print("cyclic encoder parameters:",
      sum(t.size for t in cyclic.tensors().values()),
      f"(shared across all {len(dates)} timestamps and any future date)")

# The 14 component tables are row ranges of one stacked table, and the
# cyclic embedding of a timestamp is literally the sum of its 14 rows:
print("stacked cyclic table:", cyclic.table.shape)
t = 8
c = decompose_date(dates[t])
tables = cyclic.tensors()
manual = sum(tables[f"time_{comp}"][idx] for comp, idx in zip(COMPONENTS, c))
print("cyclic encoding == sum of component rows:",
      np.allclose(cyclic.encode_batch([t])[0], manual))

# Timestamps a week apart reuse the weekday row, so their encodings are
# sums of more shared rows than those of two unrelated timestamps. Two
# encodings differ by the rows they do not share: with independently drawn
# rows, the expected squared distance grows with that count, whatever the
# draw.
def shared_rows(i, j):
    return sum(x == y for x, y in zip(decompose_date(dates[i]), decompose_date(dates[j])))


for later in (7, 9):
    print(f"{dates[0]} and {dates[later]} share {shared_rows(0, later)} of"
          f" {len(COMPONENTS)} rows")
