"""Calendar decomposition and the two time encoders."""

import datetime as dt

import numpy as np
import pytest

from timekge.time_encoding import (
    COMPONENTS,
    CyclicTimeEncoder,
    SimpleTimeEncoder,
    component_rows_for,
    cycle_cardinalities,
    decompose_date,
)
from timekge.errors import ShapeError

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


def random_tables(dim, rng):
    """One separately allocated random table per cycle component."""
    return {comp: rng.standard_normal((card, dim))
            for comp, card in cycle_cardinalities().items()}


def loop_encode(tensors, component_rows, ts):
    """The cyclic encoding as 14 gathers from the ``time_<component>``
    tensors, summed in component order."""
    rows = component_rows[np.asarray(ts, dtype=np.int64)]
    out = np.zeros((rows.shape[0], tensors["time_day_of_week"].shape[1]))
    for j, comp in enumerate(COMPONENTS):
        out += tensors[f"time_{comp}"][rows[:, j]]
    return out


def loop_scatter(tensors, component_rows, ts, upstream):
    """The cyclic gradient as one add.at per ``time_<component>`` tensor."""
    rows = component_rows[np.asarray(ts, dtype=np.int64)]
    grads = {name: np.zeros_like(t) for name, t in tensors.items()}
    for j, comp in enumerate(COMPONENTS):
        np.add.at(grads[f"time_{comp}"], rows[:, j], upstream)
    return grads


class TestSimpleEncoder:
    def test_lookup_is_table_row(self):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((5, 3))
        enc = SimpleTimeEncoder(table)
        np.testing.assert_array_equal(enc.encode_batch([0, 4]), table[[0, 4]])

    def test_out_of_range(self):
        enc = SimpleTimeEncoder(np.zeros((5, 3)))
        for bad in ([5], [-1], [0, 5]):
            with pytest.raises(IndexError):
                enc.encode_batch(bad)

    def test_rows_are_independent_parameters(self):
        rng = np.random.default_rng(1)
        enc = SimpleTimeEncoder(rng.standard_normal((4, 6)))
        before = enc.encode_batch([3])
        enc.table[2] += 10.0
        np.testing.assert_array_equal(enc.encode_batch([3]), before)
        np.testing.assert_array_equal(enc.encode_batch([3])[0], enc.table[3])

    def test_batch_equals_per_element(self):
        rng = np.random.default_rng(2)
        enc = SimpleTimeEncoder(rng.standard_normal((7, 4)))
        ts = [3, 0, 3, 6]
        batch = enc.encode_batch(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(batch[i], enc.encode_batch([t])[0])

    def test_empty_batch(self):
        enc = SimpleTimeEncoder(np.random.default_rng(0).standard_normal((3, 5)))
        assert enc.encode_batch([]).shape == (0, 5)


class TestCyclicEncoder:
    def dates(self, n=10, start=dt.date(2014, 1, 1)):
        return [start + dt.timedelta(days=i) for i in range(n)]

    def encoder(self, dim, rng, dates=None):
        return CyclicTimeEncoder(random_tables(dim, rng),
                                 component_rows_for(dates or self.dates()))

    def test_zero_tables_give_zero(self):
        tables = {comp: np.zeros((card, 4))
                  for comp, card in cycle_cardinalities().items()}
        enc = CyclicTimeEncoder(tables, component_rows_for(self.dates()))
        np.testing.assert_array_equal(enc.encode_batch([0, 9]), np.zeros((2, 4)))

    def test_single_nonzero_table(self):
        c = decompose_date(dt.date(2014, 3, 5))
        tables = {comp: np.zeros((card, 4))
                  for comp, card in cycle_cardinalities().items()}
        rng = np.random.default_rng(3)
        tables["month_of_year"] = rng.standard_normal((12, 4))
        enc = CyclicTimeEncoder(tables, component_rows_for([dt.date(2014, 3, 5)]))
        np.testing.assert_array_equal(
            enc.encode_batch([0])[0], tables["month_of_year"][c.month_of_year])

    def test_out_of_range_index(self):
        enc = self.encoder(4, np.random.default_rng(0))
        for bad in ([10], [-1], [0, 10]):
            with pytest.raises(IndexError):
                enc.encode_batch(bad)

    def test_wrong_row_count_refused(self):
        # stacked, a short day_of_week table would read day_of_month rows
        tables = random_tables(4, np.random.default_rng(0))
        tables["day_of_week"] = tables["day_of_week"][:6]
        with pytest.raises(ShapeError, match="day_of_week"):
            CyclicTimeEncoder(tables, component_rows_for(self.dates()))

    def test_encoding_is_sum_of_component_rows(self):
        rng = np.random.default_rng(4)
        enc = self.encoder(6, rng)
        tables = enc.tensors()
        for t in (0, 4, 9):
            c = decompose_date(self.dates()[t])
            expected = sum(tables[f"time_{comp}"][idx] for comp, idx in zip(COMPONENTS, c))
            np.testing.assert_allclose(enc.encode_batch([t])[0], expected, rtol=1e-15)

    def test_matches_per_component_loop(self):
        rng = np.random.default_rng(10)
        dates = self.dates(n=400, start=dt.date(2011, 11, 20))
        enc = self.encoder(7, rng, dates)
        tables = enc.tensors()
        # 1000 timestamps span three of encode_batch's row blocks at d=7
        for ts in ([], [5], [3, 3, 3], rng.integers(0, len(dates), size=300),
                   rng.integers(0, len(dates), size=1000)):
            np.testing.assert_array_equal(
                enc.encode_batch(ts), loop_encode(tables, enc.component_rows, ts))
            upstream = rng.standard_normal((len(ts), 7))
            grads = {}
            enc.scatter_grad(ts, upstream, grads)
            expected = loop_scatter(tables, enc.component_rows, ts, upstream)
            assert list(grads) == list(expected)
            for name in expected:
                np.testing.assert_array_equal(grads[name], expected[name])

    def test_tensors_are_views_of_the_stacked_table(self):
        from timekge.training import AdamState, adam_step

        rng = np.random.default_rng(11)
        enc = self.encoder(5, rng)
        tensors = enc.tensors()
        assert list(tensors) == [f"time_{c}" for c in COMPONENTS]
        assert [t.shape[0] for t in tensors.values()] == list(cycle_cardinalities().values())
        for view in tensors.values():
            assert np.shares_memory(view, enc.table)
        before = enc.encode_batch([2, 7])
        grads = {}
        enc.scatter_grad([2, 7], np.ones((2, 5)), grads)
        adam_step(tensors, grads, AdamState.for_params(tensors), lr=0.1)
        after = enc.encode_batch([2, 7])
        assert not np.any(after == before)
        np.testing.assert_array_equal(
            after, loop_encode(enc.tensors(), enc.component_rows, [2, 7]))

    def test_week_apart_difference_excludes_weekday_row(self):
        # both dates inside January 2014: only day/week positions move
        dates = self.dates(n=20)
        rng = np.random.default_rng(5)
        enc = self.encoder(8, rng, dates)
        tables = enc.tensors()
        a, b = 2, 9  # Jan 3 and Jan 10, seven days apart
        ca, cb = decompose_date(dates[a]), decompose_date(dates[b])
        assert ca.day_of_week == cb.day_of_week
        diff = enc.encode_batch([a])[0] - enc.encode_batch([b])[0]
        expected = np.zeros(8)
        for comp, ia, ib in zip(COMPONENTS, ca, cb):
            if ia != ib:
                expected += tables[f"time_{comp}"][ia] - tables[f"time_{comp}"][ib]
        assert {c for c, ia, ib in zip(COMPONENTS, ca, cb) if ia != ib} == {
            "day_of_month", "week_of_month", "day_of_season", "week_of_season",
            "day_of_year", "week_of_year"}
        np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-12)

    def test_linear_in_tables(self):
        rng = np.random.default_rng(6)
        enc = self.encoder(5, rng)
        before = enc.encode_batch([3, 7])
        for table in enc.tensors().values():
            table *= 2.5
        np.testing.assert_allclose(enc.encode_batch([3, 7]), 2.5 * before, rtol=1e-15)

    def test_scatter_routes_upstream_to_all_components(self):
        rng = np.random.default_rng(7)
        enc = self.encoder(3, rng)
        grads = {}
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
        enc = self.encoder(4, rng)
        ts = [0, 3, 3, 8]
        weights = rng.standard_normal((4, 4))

        def loss():
            return float((enc.encode_batch(ts) * weights).sum())

        grads = {}
        enc.scatter_grad(ts, weights, grads)
        report = finite_diff_check(loss, enc.tensors(), grads, epsilon=1e-5)
        assert report.max_rel_error < 1e-6

    def test_batch_empty_and_repeats(self):
        rng = np.random.default_rng(9)
        enc = self.encoder(4, rng)
        assert enc.encode_batch([]).shape == (0, 4)
        batch = enc.encode_batch([5, 5])
        np.testing.assert_array_equal(batch[0], batch[1])


def test_checkpoint_of_fourteen_files_loads_into_the_stacked_table(tmp_path):
    from timekge.datasets import Dataset, synthetic_dataset_dir
    from timekge.scoring import init_params
    from timekge.checkpoint import load_checkpoint, save_checkpoint

    ds = Dataset.from_dir(synthetic_dataset_dir())
    vocab = ds.vocab
    params = init_params("t", vocab.num_entities, vocab.num_relations, rank=2, dim_entity=4,
                         encoder="cte", dates=vocab.dates, rng=np.random.default_rng(0))
    save_checkpoint(tmp_path / "ckpt", params, vocab_hashes=vocab.hashes(), epoch=0,
                    seed=0, num_timestamps=vocab.num_timestamps)
    # v1 stores one raw little-endian file per component table
    tables = {f"time_{comp}": t for comp, t in random_tables(4, np.random.default_rng(12)).items()}
    for name, table in tables.items():
        table.astype("<f8").tofile(tmp_path / "ckpt" / f"{name}.bin")
    loaded, _ = load_checkpoint(tmp_path / "ckpt", ds)
    ts = np.arange(vocab.num_timestamps)
    np.testing.assert_array_equal(loaded.encoder.encode_batch(ts),
                                  loop_encode(tables, component_rows_for(vocab.dates), ts))
    # and saving it again writes the same 14 files
    save_checkpoint(tmp_path / "again", loaded, vocab_hashes=vocab.hashes(), epoch=0,
                    seed=0, num_timestamps=vocab.num_timestamps)
    for comp in COMPONENTS:
        name = f"time_{comp}.bin"
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "ckpt" / name).read_bytes()


def test_component_rows_precompute_matches_decomposition():
    dates = [dt.date(2012, 2, 28) + dt.timedelta(days=i) for i in range(4)]
    rows = component_rows_for(dates)
    assert rows.shape == (4, 14)
    for i, date in enumerate(dates):
        assert tuple(rows[i]) == tuple(decompose_date(date))
