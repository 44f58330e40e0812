"""Ranking metrics and count exports; ``test_acceptance``'s criterion 4 checks
``evaluate`` against a brute-force reference."""

import csv
import datetime as dt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timekge import evaluation
from timekge.datasets import Dataset, Vocab, augment_reciprocal, synthetic_dataset_dir
from timekge.errors import DataError, NumericError
from timekge.evaluation import (
    DirectionMetrics,
    RankingMetrics,
    build_filter,
    evaluate,
    export_time_concentration,
    export_time_relation_heatmap,
    rank_of,
    relation_time_counts,
)
from timekge.scoring import Model, init_params


def synthetic_kg(num_entities=50, num_relations=5, num_timestamps=10,
                 num_facts=500, seed=0):
    rng = np.random.default_rng(seed)
    facts = np.stack([
        rng.integers(0, num_entities, size=num_facts),
        rng.integers(0, num_relations, size=num_facts),
        rng.integers(0, num_entities, size=num_facts),
        rng.integers(0, num_timestamps, size=num_facts),
    ], axis=1)
    return np.unique(facts, axis=0)


def random_model(num_entities=50, num_relations=5, num_timestamps=10, seed=1):
    params = init_params("t", num_entities=num_entities,
                         num_relations=num_relations, rank=2, dim_entity=8,
                         encoder="ste", num_timestamps=num_timestamps,
                         rng=np.random.default_rng(seed))
    for t in params.tensors().values():
        t[...] = np.random.default_rng(seed + 1).standard_normal(t.shape)
    return Model(params)


class TestRankOf:
    def test_hand_ranking(self):
        scores = np.array([0.9, 0.5, 0.1])
        assert rank_of(scores, 1) == 2.0

    def test_filter_removes_competitor(self):
        scores = np.array([0.9, 0.5, 0.1])
        assert rank_of(scores, 1, filter_out={0}) == 1.0

    def test_all_equal_mean_tie(self):
        for n in (3, 10):
            scores = np.full(n, 0.7)
            assert rank_of(scores, 0) == (n + 1) / 2

    def test_true_object_must_not_be_filtered(self):
        with pytest.raises(DataError):
            rank_of(np.zeros(3), 1, filter_out={1})

    def test_filtering_never_worsens_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = rng.standard_normal(20)
            true_o = int(rng.integers(0, 20))
            others = [i for i in range(20) if i != true_o]
            flt = set(rng.choice(others, size=5, replace=False).tolist())
            assert rank_of(scores, true_o, flt) <= rank_of(scores, true_o)


class TestBuildFilter:
    def test_union_over_splits(self):
        train = np.array([[0, 0, 1, 0]])
        test = np.array([[0, 0, 2, 0]])
        flt = build_filter([train, test])
        np.testing.assert_array_equal(flt[(0, 0, 0)], [1, 2])

    def test_key_only_in_one_split(self):
        test = np.array([[3, 1, 4, 2]])
        flt = build_filter([np.zeros((0, 4), dtype=np.int64), test])
        np.testing.assert_array_equal(flt[(3, 1, 2)], [4])

    def test_time_aware_keys_stay_separate(self):
        quads = np.array([[0, 0, 1, 0], [0, 0, 2, 1]])
        flt = build_filter([quads])
        np.testing.assert_array_equal(flt[(0, 0, 0)], [1])
        np.testing.assert_array_equal(flt[(0, 0, 1)], [2])


class TestEvaluate:
    def test_perfect_scorer_reaches_one_everywhere(self):
        facts = np.array([[0, 0, 1, 0], [2, 0, 3, 1], [4, 0, 0, 1]])
        quads = augment_reciprocal(facts, 1)
        answers = {(int(s), int(p), int(t)): int(o) for s, p, o, t in quads}

        class PerfectScorer:
            """Duck-typed stand-in: the true object strictly outranks all."""

            class params:
                relation = np.zeros((2, 1))
                entity = np.zeros((6, 1))

            def forward(self, s, p, t, training=False):
                logits = np.zeros((len(s), 6))
                for i in range(len(s)):
                    logits[i, answers[(int(s[i]), int(p[i]), int(t[i]))]] = 1.0
                return logits, None

        flt = build_filter([quads])
        metrics = evaluate(PerfectScorer(), quads, flt)
        assert metrics.mrr == 1.0
        assert metrics.hits1 == metrics.hits3 == metrics.hits10 == 1.0
        assert metrics.num_queries == 2 * facts.shape[0]

    def test_uniform_random_model_tracks_harmonic_mean(self):
        # raw MRR of random scores concentrates near H(E)/E
        facts = synthetic_kg(num_facts=400, seed=4)
        quads = augment_reciprocal(facts, 5)
        model = random_model(seed=5)
        metrics = evaluate(model, quads, None, mode="raw")
        n = 50
        expected = np.sum(1.0 / np.arange(1, n + 1)) / n
        assert abs(metrics.mrr - expected) / expected < 0.3

    def test_deterministic(self):
        facts = synthetic_kg(num_facts=60, seed=6)
        quads = augment_reciprocal(facts, 5)
        flt = build_filter([quads])
        model = random_model(seed=7)
        assert evaluate(model, quads, flt).to_dict() == \
            evaluate(model, quads, flt).to_dict()

    def test_single_object_keys_make_modes_agree(self):
        rng = np.random.default_rng(8)
        seen = set()
        rows = []
        for _ in range(100):
            s, p, t = rng.integers(0, 5), rng.integers(0, 3), rng.integers(0, 4)
            if (int(s), int(p), int(t)) in seen:
                continue
            seen.add((int(s), int(p), int(t)))
            rows.append([s, p, rng.integers(0, 20), t])
        facts = np.asarray(rows, dtype=np.int64)
        model = random_model(num_entities=20, num_relations=3, num_timestamps=4,
                             seed=9)
        quads = augment_reciprocal(facts, 3)
        keys = [tuple(q) for q in quads[:, [0, 1, 3]].tolist()]
        if len(set(keys)) != len(keys):  # reciprocal collisions can merge keys
            quads = quads[:facts.shape[0]]
        flt = build_filter([quads])
        filtered = evaluate(model, quads, flt, mode="filtered").to_dict()
        raw = evaluate(model, quads, flt, mode="raw").to_dict()
        assert filtered == raw

    def test_filtered_mrr_at_least_raw(self):
        facts = synthetic_kg(num_facts=300, seed=10)
        quads = augment_reciprocal(facts, 5)
        flt = build_filter([quads])
        model = random_model(seed=11)
        filtered = evaluate(model, quads, flt, mode="filtered")
        raw = evaluate(model, quads, flt, mode="raw")
        assert filtered.mrr >= raw.mrr

    def test_direction_split_counts(self):
        facts = synthetic_kg(num_facts=80, seed=12)
        quads = augment_reciprocal(facts, 5)
        flt = build_filter([quads])
        model = random_model(seed=13)
        metrics = evaluate(model, quads, flt)
        assert metrics.tail.num_queries == facts.shape[0]
        assert metrics.head.num_queries == facts.shape[0]
        assert metrics.num_queries == 2 * facts.shape[0]

    def test_missing_filter_key_is_hard_error(self):
        facts = np.array([[0, 0, 1, 0]])
        quads = augment_reciprocal(facts, 1)
        model = random_model(num_entities=3, num_relations=1, num_timestamps=1,
                             seed=14)
        with pytest.raises(DataError, match="filter"):
            evaluate(model, quads, {}, mode="filtered")

    def test_key_missing_from_filter_index_is_hard_error(self):
        quads = augment_reciprocal(np.array([[0, 0, 1, 0], [2, 0, 1, 0]]), 1)
        model = random_model(num_entities=3, num_relations=1, num_timestamps=1,
                             seed=14)
        flt = build_filter([quads[:1]])
        with pytest.raises(DataError, match=r"no filter entry for key \(2, 0, 0\); "
                                            "the filter must be built from all splits"):
            evaluate(model, quads, flt, mode="filtered")

    def test_ranking_metrics_from_ranks_splits_by_direction(self):
        ranks = np.array([1.0, 4.0, 2.5, 12.0])
        is_head = np.array([False, True, False, True])
        got = RankingMetrics.from_ranks(ranks, is_head)
        assert got.to_dict() == {**DirectionMetrics.from_ranks(ranks).to_dict(), "per_direction": {
            "tail": DirectionMetrics.from_ranks(ranks[[0, 2]]).to_dict(),
            "head": DirectionMetrics.from_ranks(ranks[[1, 3]]).to_dict()}}

    def test_hits_ordering_invariant(self):
        facts = synthetic_kg(num_facts=200, seed=15)
        quads = augment_reciprocal(facts, 5)
        flt = build_filter([quads])
        metrics = evaluate(random_model(seed=16), quads, flt)
        assert metrics.hits1 <= metrics.hits3 <= metrics.hits10
        assert metrics.mrr >= metrics.hits1


class TestChunkSize:
    @pytest.mark.parametrize("variant, encoder", [("tnt", "ste"), ("cfb", "cte")])
    def test_ranks_do_not_depend_on_the_chunk_size(self, monkeypatch, variant, encoder):
        e, r, t, sizes = 400, 6, 20, (256, 512, 1024)
        rng = np.random.default_rng(5)
        facts = np.unique(np.stack([rng.integers(0, e, 1200), rng.integers(0, r, 1200),
                                    rng.integers(0, e, 1200), rng.integers(0, t, 1200)],
                                   axis=1), axis=0)
        quads = augment_reciprocal(facts, r)
        # every size cuts the subject order into several chunks, inside some
        # subject's run of queries
        subjects = np.sort(quads[:, 0])
        assert quads.shape[0] > 2 * max(sizes)
        edges = [np.arange(size, subjects.size, size) for size in sizes]
        assert all((subjects[edge] == subjects[edge - 1]).any() for edge in edges)
        dates = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(t)]
        model = Model(init_params(variant, e, r, 4, 16, encoder=encoder, num_timestamps=t,
                                  dates=dates, rng=np.random.default_rng(6)))
        flt = build_filter([quads])
        seen = []
        from_ranks = RankingMetrics.from_ranks
        monkeypatch.setattr(RankingMetrics, "from_ranks", staticmethod(
            lambda ranks, is_head: seen.append(ranks) or from_ranks(ranks, is_head)))
        for mode in ("filtered", "raw"):
            metrics = [evaluate(model, quads, flt, mode=mode, batch_size=size).to_dict()
                       for size in sizes]
            assert metrics[1] == metrics[0] and metrics[2] == metrics[0]
        assert len(seen) == 2 * len(sizes)
        for first, *others in (seen[:3], seen[3:]):
            assert all(np.array_equal(ranks, first) for ranks in others)


    def test_a_short_last_chunk_is_filled_up_to_the_full_size(self, monkeypatch):
        # every chunk of a split allocates arrays of one size; a single chunk
        # is never filled up
        rng = np.random.default_rng(7)
        e, r, t = 50, 3, 4
        facts = np.stack([rng.integers(0, e, 300), rng.integers(0, r, 300),
                          rng.integers(0, e, 300), rng.integers(0, t, 300)], axis=1)
        quads = augment_reciprocal(facts, r)
        model = Model(init_params("tnt", e, r, 2, 8, encoder="ste", num_timestamps=t,
                                  rng=np.random.default_rng(8)))
        flt = build_filter([quads])
        sizes, chunk_ranks = [], evaluation._chunk_ranks
        monkeypatch.setattr(evaluation, "_chunk_ranks", lambda model, quads, rows, *rest: (
            sizes.append(rows.size) or chunk_ranks(model, quads, rows, *rest)))
        for mode in ("filtered", "raw"):
            whole = evaluate(model, quads, flt, mode=mode, batch_size=quads.shape[0])
            assert evaluate(model, quads, flt, mode=mode, batch_size=256) == whole
        assert quads.shape[0] == 600 and sizes == [600, 256, 256, 256] * 2

    def test_non_finite_logit_in_a_filled_up_chunk_is_named_once(self):
        # the last chunk holds input position 3 and two copies of it
        queries = np.array([[0, 0, 1, 0], [1, 0, 2, 0], [2, 0, 1, 0], [3, 0, 1, 0]])
        table = np.zeros((4, 1, 1, 4))
        table[3, 0, 0, 2] = np.inf
        with pytest.raises(NumericError, match=r"at input positions 3$"):
            evaluate(TableScorer(table), queries, None, mode="raw", batch_size=3)


class TableScorer:
    """Duck-typed model whose logits are a fixed (s, p, t) -> row table."""

    def __init__(self, table):
        self.table = table
        self.params = SimpleNamespace(relation=np.zeros((table.shape[1], 1)))

    def forward(self, s, p, t, training=False):
        return self.table[s, p, t], None  # fancy indexing returns a fresh array


@st.composite
def ranking_problems(draw):
    """Small random splits, a tie-heavy score table and a chunk size."""
    num_e, num_r, num_t = (draw(st.integers(2, 6)), draw(st.integers(1, 3)),
                           draw(st.integers(1, 3)))
    fact = st.tuples(st.integers(0, num_e - 1), st.integers(0, num_r - 1),
                     st.integers(0, num_e - 1), st.integers(0, num_t - 1))
    splits = [augment_reciprocal(np.array(draw(st.lists(fact, min_size=low, max_size=10)),
                                          dtype=np.int64).reshape(-1, 4), num_r)
              for low in (1, 0, 0)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one or a few score levels: many candidates tie with the true object
    levels = draw(st.integers(1, 3))
    table = rng.integers(0, levels, size=(num_e, 2 * num_r, num_t, num_e)).astype(float)
    return splits, table, draw(st.integers(1, 7))


class TestRankingProperty:
    @settings(max_examples=80, deadline=None)
    @given(ranking_problems(), st.data())
    def test_evaluate_equals_per_query_rank_of(self, problem, data):
        splits, table, batch_size = problem
        flt = build_filter(splits)
        queries = np.concatenate(splits)
        # any query order: evaluate ranks in subject order and averages in input order
        queries = queries[data.draw(st.permutations(range(queries.shape[0])))]
        model = TableScorer(table)
        for mode in ("filtered", "raw"):
            ranks = np.array([
                rank_of(table[s, p, t], o,
                        [k for k in flt[(s, p, t)] if k != o] if mode == "filtered" else ())
                for s, p, o, t in queries.tolist()])
            got = evaluate(model, queries, flt, mode=mode, batch_size=batch_size)
            assert got.mrr == np.mean(1.0 / ranks)
            for k, hits in ((1, got.hits1), (3, got.hits3), (10, got.hits10)):
                assert hits == np.mean(ranks <= k)
            is_head = queries[:, 1] >= table.shape[1] // 2
            assert got.tail == DirectionMetrics.from_ranks(ranks[~is_head])
            assert got.head == DirectionMetrics.from_ranks(ranks[is_head])

    @settings(max_examples=40, deadline=None)
    @given(ranking_problems(), st.data())
    def test_non_finite_row_raises(self, problem, data):
        splits, table, batch_size = problem
        queries = np.concatenate(splits)
        s, p, _, t = queries[data.draw(st.integers(0, queries.shape[0] - 1))]
        cand = data.draw(st.integers(0, table.shape[0] - 1))
        table[s, p, t, cand] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        for mode in ("filtered", "raw"):
            with pytest.raises(NumericError):
                evaluate(TableScorer(table), queries, build_filter(splits), mode=mode,
                         batch_size=batch_size)


    def test_non_finite_logit_names_input_position(self):
        # in subject order the query at input position 2 comes first, at position 0
        queries = np.array([[2, 0, 1, 0], [3, 0, 1, 0], [0, 0, 1, 0], [1, 0, 2, 0]])
        table = np.zeros((4, 2, 1, 4))
        table[0, 0, 0, 3] = np.nan
        for mode in ("filtered", "raw"):
            with pytest.raises(NumericError, match=r"at input positions 2$"):
                evaluate(TableScorer(table), queries, build_filter([queries]), mode=mode,
                         batch_size=1)


class TestNonFiniteLogits:
    def trainer(self):
        from timekge.training import TrainConfig, Trainer

        cfg = TrainConfig(variant="t", dim_entity=8, rank=2, epochs=0, seed=0)
        return Trainer(Dataset.from_dir(synthetic_dataset_dir()), cfg)

    def test_clean_model_ranks_within_bounds(self):
        metrics = self.trainer().evaluate_split("valid")
        assert 0.0 < metrics.mrr < 1.0

    @pytest.mark.parametrize("mode", ["filtered", "raw"])
    def test_nan_relation_table_raises(self, mode):
        # NaN compares false with everything, which used to rank every
        # query first: MRR 2.0 and Hits@1 1.0 on this model
        trainer = self.trainer()
        trainer.model.params.relation[:] = np.nan
        with pytest.raises(NumericError):
            trainer.evaluate_split("valid", mode=mode)

    def test_one_nan_coordinate_raises(self):
        trainer = self.trainer()
        trainer.model.params.entity[0, 0] = np.nan
        with pytest.raises(NumericError):
            trainer.evaluate_split("test")

    def test_overflowing_logits_raise(self):
        trainer = self.trainer()
        trainer.model.params.entity[:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            trainer.evaluate_split("valid")


class TestExports:
    def make_vocab(self, num_relations=3, num_days=6):
        return Vocab(
            entities=["E0", "E1"],
            relations=[f"R{i}" for i in range(num_relations)],
            dates=[dt.date(2014, 1, 1) + dt.timedelta(days=i)
                   for i in range(num_days)],
        )

    def test_single_fact_single_cell(self, tmp_path):
        vocab = self.make_vocab()
        counts = export_time_relation_heatmap(
            np.array([[0, 1, 1, 4]]), vocab, tmp_path / "hm.csv")
        assert counts.sum() == 1
        assert counts[1, 4] == 1

    def test_row_sums_match_relation_counts(self, tmp_path):
        rng = np.random.default_rng(17)
        quads = np.stack([
            rng.integers(0, 2, size=100), rng.integers(0, 3, size=100),
            rng.integers(0, 2, size=100), rng.integers(0, 6, size=100),
        ], axis=1)
        vocab = self.make_vocab()
        counts = export_time_relation_heatmap(quads, vocab, tmp_path / "hm.csv")
        for r in range(3):
            assert counts[r].sum() == (quads[:, 1] == r).sum()

    def test_reciprocals_fold_into_originals(self):
        quads = augment_reciprocal(np.array([[0, 1, 1, 2]]), 3)
        counts = relation_time_counts(quads, 3, 6)
        assert counts[1, 2] == 2

    def test_resampled_columns_aggregate_adjacent(self, tmp_path):
        rng = np.random.default_rng(18)
        quads = np.stack([
            rng.integers(0, 2, size=200), rng.integers(0, 3, size=200),
            rng.integers(0, 2, size=200), rng.integers(0, 6, size=200),
        ], axis=1)
        vocab = self.make_vocab()
        fine = export_time_relation_heatmap(quads, vocab, tmp_path / "fine.csv")
        coarse = export_time_relation_heatmap(quads, vocab, tmp_path / "coarse.csv",
                                              rate=2)
        np.testing.assert_array_equal(
            coarse, fine.reshape(3, 3, 2).sum(axis=2))

    def test_heatmap_csv_structure(self, tmp_path):
        vocab = self.make_vocab()
        path = tmp_path / "hm.csv"
        export_time_relation_heatmap(np.array([[0, 0, 1, 0]]), vocab, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["relation", *[d.isoformat() for d in vocab.dates]]
        assert [r[0] for r in rows[1:]] == ["R0", "R1", "R2"]

    def test_concentration_is_column_marginal(self, tmp_path):
        rng = np.random.default_rng(19)
        quads = np.stack([
            rng.integers(0, 2, size=150), rng.integers(0, 3, size=150),
            rng.integers(0, 2, size=150), rng.integers(0, 6, size=150),
        ], axis=1)
        vocab = self.make_vocab()
        heat = export_time_relation_heatmap(quads, vocab, tmp_path / "hm.csv")
        conc = export_time_concentration(quads, vocab, tmp_path / "c.csv")
        np.testing.assert_array_equal(conc, heat.sum(axis=0))
        assert conc.sum() == 150

    @pytest.mark.parametrize("size", [0, 1, 400])
    def test_counts_match_loop_reference(self, tmp_path, size):
        rng = np.random.default_rng(size)
        vocab = self.make_vocab(num_relations=3, num_days=7)
        quads = augment_reciprocal(np.stack([
            rng.integers(0, 2, size=size), rng.integers(0, 3, size=size),
            rng.integers(0, 2, size=size), rng.integers(0, 7, size=size),
        ], axis=1), 3)
        for rate in (1, 2, 7):
            num_t = -(-7 // rate)
            heat = np.zeros((3, num_t), dtype=np.int64)
            conc = np.zeros(num_t, dtype=np.int64)
            for _, p, _, t in quads.tolist():
                heat[p % 3, t // rate] += 1
                conc[t // rate] += 1
            got_heat = export_time_relation_heatmap(quads, vocab, tmp_path / "h.csv", rate=rate)
            got_conc = export_time_concentration(quads, vocab, tmp_path / "c.csv", rate=rate)
            assert got_heat.dtype == got_conc.dtype == np.int64
            np.testing.assert_array_equal(got_heat, heat)
            np.testing.assert_array_equal(got_conc, conc)

    @pytest.mark.parametrize("t", [-1, 6])
    def test_timestamp_outside_table_refused(self, tmp_path, t):
        # a cell index p * T + t would otherwise land in a neighbouring row
        quads = np.array([[0, 0, 1, 0], [0, 1, 1, t]])
        with pytest.raises(DataError, match="timestamp"):
            relation_time_counts(quads, 3, 6)
        with pytest.raises(DataError, match="timestamp"):
            export_time_concentration(quads, self.make_vocab(), tmp_path / "c.csv")

    def test_empty_kg_empty_body(self, tmp_path):
        vocab = Vocab(entities=[], relations=[], dates=[])
        path = tmp_path / "c.csv"
        export_time_concentration(np.zeros((0, 4), dtype=np.int64), vocab, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["date", "count"]]
