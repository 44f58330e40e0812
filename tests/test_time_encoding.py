"""Calendar decomposition and the two time encoders."""

import datetime as dt

import numpy as np
import pytest

from timekge.time_encoding import (
    COMPONENTS,
    CycleIndices,
    CyclicTimeEncoder,
    SimpleTimeEncoder,
    component_rows_for,
    cycle_cardinalities,
    decompose_date,
    encode_cyclic,
    encode_simple,
)

DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def sakamoto_weekday(date: dt.date) -> int:
    """Independent day-of-week oracle (Sakamoto), shifted to Monday=0."""
    offsets = [0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4]
    y, m, d = date.year, date.month, date.day
    if m < 3:
        y -= 1
    sunday0 = (y + y // 4 - y // 100 + y // 400 + offsets[m - 1] + d) % 7
    return (sunday0 + 6) % 7


def is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def all_dates(start_year: int, end_year: int):
    day = dt.date(start_year, 1, 1)
    end = dt.date(end_year, 12, 31)
    while day <= end:
        yield day
        day += dt.timedelta(days=1)


class TestCardinalities:
    def test_declared_values(self):
        cards = cycle_cardinalities()
        assert cards == {
            "day_of_week": 7, "day_of_month": 31, "week_of_month": 5,
            "day_of_season": 92, "week_of_season": 14, "month_of_season": 3,
            "day_of_year": 366, "week_of_year": 53, "month_of_year": 12,
            "season_of_year": 4, "year_units": 10, "year_decades": 10,
            "year_centuries": 10, "year_millennia": 10,
        }

    def test_fourteen_components_in_canonical_order(self):
        assert len(COMPONENTS) == 14
        assert tuple(cycle_cardinalities()) == COMPONENTS


class TestDecomposeDate:
    def test_first_day_of_year(self):
        c = decompose_date(dt.date(2014, 1, 1))
        assert (c.day_of_year, c.month_of_year, c.day_of_month,
                c.week_of_month) == (0, 0, 0, 0)

    def test_known_weekdays(self):
        # published calendar anchors
        assert decompose_date(dt.date(2014, 1, 1)).day_of_week == 2   # Wednesday
        assert decompose_date(dt.date(2000, 1, 1)).day_of_week == 5   # Saturday
        assert decompose_date(dt.date(1995, 1, 1)).day_of_week == 6   # Sunday

    def test_year_digits(self):
        c = decompose_date(dt.date(2014, 6, 15))
        assert (c.year_units, c.year_decades, c.year_centuries,
                c.year_millennia) == (4, 1, 0, 2)

    def test_weekday_matches_independent_oracle(self):
        for date in all_dates(1999, 2001):
            assert decompose_date(date).day_of_week == sakamoto_weekday(date)

    def test_rejects_non_dates(self):
        with pytest.raises(TypeError):
            decompose_date("2014-01-01")

    def test_seven_day_periodicity(self):
        rng = np.random.default_rng(5)
        base = dt.date(1980, 1, 1)
        for offset in rng.integers(0, 20000, size=200):
            day = base + dt.timedelta(days=int(offset))
            later = day + dt.timedelta(days=7)
            assert decompose_date(day).day_of_week == decompose_date(later).day_of_week

    def test_consistency_identities_across_years(self):
        for date in all_dates(2011, 2016):  # includes leap year 2012
            c = decompose_date(date)
            months = DAYS_IN_MONTH.copy()
            if is_leap(date.year):
                months[1] = 29
            assert c.day_of_year == sum(months[:c.month_of_year]) + c.day_of_month
            assert c.week_of_year == c.day_of_year // 7
            assert c.week_of_month == c.day_of_month // 7
            assert c.week_of_season == c.day_of_season // 7
            assert c.season_of_year == c.month_of_year // 3
            assert c.month_of_season == c.month_of_year % 3

    def test_indices_within_cardinalities(self):
        cards = cycle_cardinalities()
        for date in all_dates(2012, 2012):
            c = decompose_date(date)
            for comp, idx in zip(COMPONENTS, c):
                assert 0 <= idx < cards[comp], (date, comp)

    def test_longest_season_reaches_day_91(self):
        assert decompose_date(dt.date(2014, 9, 30)).day_of_season == 91

    def test_day_of_year_identity_over_two_centuries(self):
        # exhaustive over 1900-2100, including the non-leap century 1900
        for date in all_dates(1900, 2100):
            c = decompose_date(date)
            months = DAYS_IN_MONTH.copy()
            if is_leap(date.year):
                months[1] = 29
            assert c.day_of_year == sum(months[:c.month_of_year]) + c.day_of_month


class TestSimpleEncoder:
    def test_lookup_is_table_row(self):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(encode_simple(0, table), table[0])
        np.testing.assert_array_equal(encode_simple(4, table), table[4])

    def test_out_of_range(self):
        table = np.zeros((5, 3))
        with pytest.raises(IndexError):
            encode_simple(5, table)

    def test_rows_are_independent_parameters(self):
        rng = np.random.default_rng(1)
        enc = SimpleTimeEncoder.create(4, 6, rng)
        enc.table[2] += 10.0
        np.testing.assert_array_equal(enc.encode(3), enc.table[3])

    def test_batch_equals_per_element(self):
        rng = np.random.default_rng(2)
        enc = SimpleTimeEncoder.create(7, 4, rng)
        ts = [3, 0, 3, 6]
        batch = enc.encode_batch(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(batch[i], enc.encode(t))

    def test_empty_batch(self):
        enc = SimpleTimeEncoder.create(3, 5, np.random.default_rng(0))
        assert enc.encode_batch([]).shape == (0, 5)


class TestCyclicEncoder:
    def dates(self, n=10, start=dt.date(2014, 1, 1)):
        return [start + dt.timedelta(days=i) for i in range(n)]

    def test_zero_tables_give_zero(self):
        c = decompose_date(dt.date(2014, 3, 5))
        tables = {comp: np.zeros((card, 4))
                  for comp, card in cycle_cardinalities().items()}
        np.testing.assert_array_equal(encode_cyclic(c, tables), np.zeros(4))

    def test_single_nonzero_table(self):
        c = decompose_date(dt.date(2014, 3, 5))
        tables = {comp: np.zeros((card, 4))
                  for comp, card in cycle_cardinalities().items()}
        rng = np.random.default_rng(3)
        tables["month_of_year"] = rng.standard_normal((12, 4))
        np.testing.assert_array_equal(
            encode_cyclic(c, tables), tables["month_of_year"][c.month_of_year])

    def test_out_of_range_index(self):
        tables = {comp: np.zeros((card, 4))
                  for comp, card in cycle_cardinalities().items()}
        bad = CycleIndices(7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(IndexError, match="day_of_week"):
            encode_cyclic(bad, tables)

    def test_encoding_is_sum_of_component_rows(self):
        rng = np.random.default_rng(4)
        enc = CyclicTimeEncoder.create(self.dates(), 6, rng)
        for t in (0, 4, 9):
            c = decompose_date(self.dates()[t])
            expected = sum(enc.tables[comp][idx] for comp, idx in zip(COMPONENTS, c))
            np.testing.assert_allclose(enc.encode_batch([t])[0], expected, rtol=1e-15)

    def test_week_apart_difference_excludes_weekday_row(self):
        # both dates inside January 2014: only day/week positions move
        dates = self.dates(n=20)
        rng = np.random.default_rng(5)
        enc = CyclicTimeEncoder.create(dates, 8, rng)
        a, b = 2, 9  # Jan 3 and Jan 10, seven days apart
        ca, cb = decompose_date(dates[a]), decompose_date(dates[b])
        assert ca.day_of_week == cb.day_of_week
        diff = enc.encode_batch([a])[0] - enc.encode_batch([b])[0]
        expected = np.zeros(8)
        for comp, ia, ib in zip(COMPONENTS, ca, cb):
            if ia != ib:
                expected += enc.tables[comp][ia] - enc.tables[comp][ib]
        assert {c for c, ia, ib in zip(COMPONENTS, ca, cb) if ia != ib} == {
            "day_of_month", "week_of_month", "day_of_season", "week_of_season",
            "day_of_year", "week_of_year"}
        np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-12)

    def test_linear_in_tables(self):
        rng = np.random.default_rng(6)
        enc = CyclicTimeEncoder.create(self.dates(), 5, rng)
        before = enc.encode_batch([3, 7])
        for table in enc.tables.values():
            table *= 2.5
        np.testing.assert_allclose(enc.encode_batch([3, 7]), 2.5 * before, rtol=1e-15)

    def test_scatter_routes_upstream_to_all_components(self):
        rng = np.random.default_rng(7)
        enc = CyclicTimeEncoder.create(self.dates(), 3, rng)
        grads = {name: np.zeros_like(t) for name, t in enc.tensors().items()}
        upstream = rng.standard_normal((2, 3))
        enc.scatter_grad([1, 1], upstream, grads)
        c = decompose_date(self.dates()[1])
        for comp, idx in zip(COMPONENTS, c):
            np.testing.assert_allclose(
                grads[f"time_{comp}"][idx], upstream.sum(axis=0), rtol=1e-15)
            row_mask = np.ones(grads[f"time_{comp}"].shape[0], dtype=bool)
            row_mask[idx] = False
            assert not grads[f"time_{comp}"][row_mask].any()

    def test_gradient_matches_finite_differences(self):
        from timekge.gradcheck import finite_diff_check

        rng = np.random.default_rng(8)
        enc = CyclicTimeEncoder.create(self.dates(), 4, rng)
        ts = [0, 3, 3, 8]
        weights = rng.standard_normal((4, 4))

        def loss():
            return float((enc.encode_batch(ts) * weights).sum())

        grads = {name: np.zeros_like(t) for name, t in enc.tensors().items()}
        enc.scatter_grad(ts, weights, grads)
        report = finite_diff_check(loss, enc.tensors(), grads, epsilon=1e-5)
        assert report.max_rel_error < 1e-6

    def test_batch_empty_and_repeats(self):
        rng = np.random.default_rng(9)
        enc = CyclicTimeEncoder.create(self.dates(), 4, rng)
        assert enc.encode_batch([]).shape == (0, 4)
        batch = enc.encode_batch([5, 5])
        np.testing.assert_array_equal(batch[0], batch[1])


def test_component_rows_precompute_matches_decomposition():
    dates = [dt.date(2012, 2, 28) + dt.timedelta(days=i) for i in range(4)]
    rows = component_rows_for(dates)
    assert rows.shape == (4, 14)
    for i, date in enumerate(dates):
        assert tuple(rows[i]) == tuple(decompose_date(date))
