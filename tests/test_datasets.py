"""Parsing, vocabularies, augmentation, resampling and grouping."""

import collections
import datetime as dt
import importlib.util
import io
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timekge import datasets
from timekge.datasets import (
    Dataset,
    QuadrupleColumns,
    TargetIndex,
    Vocab,
    augment_reciprocal,
    build_vocab,
    group_targets,
    index_quadruples,
    parse_quadruples,
    resample_time,
    synthetic_dataset_dir,
)
from timekge.errors import DataError, MissingKeyError, OovError

ROOT = Path(__file__).resolve().parent.parent


def facts(*rows):
    """Columns of ``(s, p, o, "YYYY-MM-DD")`` rows."""
    subjects, predicates, objects, dates = map(list, zip(*rows)) if rows else ([],) * 4
    return QuadrupleColumns(subjects, predicates, objects,
                            [dt.date.fromisoformat(d) for d in dates])


class TestParse:
    def test_single_line(self):
        quads = parse_quadruples("A\tp\tB\t2014-01-01")
        assert vars(quads) == vars(facts(("A", "p", "B", "2014-01-01")))

    def test_empty_input(self):
        assert vars(parse_quadruples("")) == vars(facts())
        assert vars(parse_quadruples("\n\n")) == vars(facts())

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(DataError, match=":2:"):
            parse_quadruples("A\tp\tB\t2014-01-01\nA\tp\tB")

    def test_bad_date_reports_line(self):
        with pytest.raises(DataError, match=":1:.*2014-13-01"):
            parse_quadruples("A\tp\tB\t2014-13-01")

    def test_crlf_and_bytes(self):
        stream = io.BytesIO(b"A\tp\tB\t2014-01-01\r\nC\tq\tD\t2014-01-02\r\n"
                            b"E\tr\tF\t2014-01-01\r\n")
        quads = parse_quadruples(stream)
        assert quads.subjects == ["A", "C", "E"]
        assert quads.dates[0] is quads.dates[2]  # parsed once per distinct string

    def test_empty_field_rejected(self):
        with pytest.raises(DataError, match="empty field"):
            parse_quadruples("A\t\tB\t2014-01-01")

    @pytest.mark.parametrize("head, line", [
        (b"", 1), (b"A\tp\tB\t2014-01-01\n", 2), (b"A\tp\tB\t2014-01-01\r\n\n", 3),
        (b"A\tp\tB\t2014-01-01\r", 2), ("A\tp\t\u00e9\t2014-01-01\n".encode(), 2)])
    def test_bytes_not_utf8_report_line(self, head, line):
        with pytest.raises(DataError, match=f"^f.txt:{line}: not UTF-8"):
            parse_quadruples(io.BytesIO(head + b"C\tq\t\xffD\t2014-01-02\n"), "f.txt")

    @pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c"])
    def test_only_cr_and_lf_end_a_line(self, sep):
        fact = f"A{sep}B\tp\tC{sep}D\t2014-01-01\n"
        assert vars(parse_quadruples(fact.encode(), "f.txt")) == vars(
            facts((f"A{sep}B", "p", f"C{sep}D", "2014-01-01")))
        with pytest.raises(DataError, match=r"^f.txt:3: bad date '2014-13-01'"):
            parse_quadruples((fact + "\r\nE\tq\tF\t2014-13-01\n").encode(), "f.txt")
        with pytest.raises(DataError, match="^f.txt:2: not UTF-8"):
            parse_quadruples(fact.encode() + b"\xff\tq\tF\t2014-01-02\n", "f.txt")

    @pytest.mark.parametrize("text", [
        b"\xef\xbb\xbfA\tp\tB\t2014-01-01\nB\tp\tA\t2014-01-02\n",
        "\ufeffA\tp\tB\t2014-01-01\nB\tp\tA\t2014-01-02\n"])
    def test_leading_byte_order_mark_dropped(self, text):
        quads = parse_quadruples(text)
        assert quads.subjects == ["A", "B"]
        assert build_vocab(quads).entities == ["A", "B"]

    def test_only_one_leading_byte_order_mark_dropped(self):
        quads = parse_quadruples("\ufeff\ufeffA\tp\t\ufeffB\t2014-01-01\n")
        assert (quads.subjects, quads.objects) == (["\ufeffA"], ["\ufeffB"])
        with pytest.raises(DataError, match="^f.txt:2: empty field"):
            parse_quadruples(b"\xef\xbb\xbf\nA\tp\t \t2014-01-01\n", "f.txt")

    @pytest.mark.parametrize("lines, message", [
        (["A\tp\tB\t2014-01-01", "", "A\tp\tB\t2014-13-01", "A\tp\tB\t2014-01-02",
          "A\tp\tB"], ":3: bad date '2014-13-01': month must be in 1..12"),
        (["A\tp\tB\t2014-01-01", "  ", "A\tp\tB\t2014-01-02", "A\t \tB\t2014-01-03",
          "A\tp\tB\t2014-01-04", "A\tp\tB\t2014-1-5"], ":4: empty field"),
        (["A\tp\tB\t2014-01-01", "A\tp\t\t2014-1-2", "A\tp\tB\t2014-1-3"], ":2: empty field"),
        (["A\tp\tB\t2014-01-01", "A\tp\tB\t2014-1-2\tx", "A\tp\t\t2014-01-03"],
         ":2: expected 4 tab-separated columns, got 5"),
    ])
    def test_first_offending_line_in_file_order(self, lines, message):
        with pytest.raises(DataError) as info:
            parse_quadruples("\n".join(lines), "f.txt")
        assert str(info.value) == "f.txt" + message


class TestVocab:
    def test_first_occurrence_order(self):
        train = facts(("B", "p", "A", "2014-01-02"), ("A", "q", "C", "2014-01-01"))
        vocab = build_vocab(train)
        assert vocab.entities == ["B", "A", "C"]
        assert vocab.relations == ["p", "q"]

    def test_timestamps_sorted_chronologically(self):
        train = facts(("A", "p", "B", "2014-03-01"), ("A", "p", "B", "2014-01-05"))
        vocab = build_vocab(train)
        assert [d.isoformat() for d in vocab.dates] == ["2014-01-05", "2014-03-01"]

    def test_single_quadruple(self):
        vocab = build_vocab(facts(("A", "p", "A", "2014-01-01")))
        assert (vocab.num_entities, vocab.num_relations, vocab.num_timestamps) == (1, 1, 1)

    def test_round_trip_bijections(self):
        train = facts(("A", "p", "B", "2014-01-01"), ("C", "q", "A", "2014-02-01"))
        vocab = build_vocab(train)
        for i, e in enumerate(vocab.entities):
            assert vocab.ent_index[e] == i
        for i, r in enumerate(vocab.relations):
            assert vocab.rel_index[r] == i
        for i, d in enumerate(vocab.dates):
            assert vocab.date_index[d] == i

    def test_relation_label_folds_reciprocals(self):
        vocab = build_vocab(facts(("A", "p", "B", "2014-01-01")))
        assert vocab.relation_label(0) == "p"
        assert vocab.relation_label(1) == "p_inverse"

    def test_hashes_change_with_content(self):
        v1 = build_vocab(facts(("A", "p", "B", "2014-01-01")))
        v2 = build_vocab(facts(("A", "p", "C", "2014-01-01")))
        assert v1.hashes() != v2.hashes()
        assert v1.hashes() == build_vocab(facts(("A", "p", "B", "2014-01-01"))).hashes()


class TestIndexing:
    def test_substitution(self):
        train = facts(("A", "p", "B", "2014-01-02"), ("B", "p", "A", "2014-01-01"))
        vocab = build_vocab(train)
        quads = index_quadruples(train, vocab)
        np.testing.assert_array_equal(quads, [[0, 0, 1, 1], [1, 0, 0, 0]])

    def test_oov_entity_named(self):
        vocab = build_vocab(facts(("A", "p", "B", "2014-01-01")))
        with pytest.raises(OovError, match="'Zed'"):
            index_quadruples(facts(("Zed", "p", "B", "2014-01-01")), vocab)

    def test_empty(self):
        vocab = build_vocab(facts(("A", "p", "B", "2014-01-01")))
        assert index_quadruples(facts(), vocab).shape == (0, 4)

    def test_oov_named_in_row_major_order(self):
        vocab = build_vocab(facts(("A", "p", "B", "2014-01-01")))
        rows = facts(("A", "p", "Obj", "2014-01-01"), ("Subj", "p", "B", "2014-01-01"))
        with pytest.raises(OovError, match="^entity 'Obj' not in vocabulary$"):
            index_quadruples(rows, vocab)
        with pytest.raises(OovError, match="^relation 'q' not in vocabulary$"):
            index_quadruples(parse_quadruples("A\tp\tB\t2014-01-01\nA\tq\tObj\t2014-01-02"),
                             vocab)
        with pytest.raises(OovError, match="^date 2014-01-02 not in vocabulary$"):
            index_quadruples(facts(("A", "p", "B", "2014-01-02")), vocab)


def reference_parse(text):
    """Per-line reference for ``parse_quadruples``: the loop the columnar
    parser replaced, with lines read under universal newlines. It serves
    the tests only, as ``rank_of`` serves the vectorised ranker."""
    out = []
    text = text.removeprefix("\ufeff")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError(
                f"<stream>:{lineno}: expected 4 tab-separated columns, got {len(fields)}")
        subject, predicate, obj, datestr = (f.strip() for f in fields)
        if not (subject and predicate and obj and datestr):
            raise DataError(f"<stream>:{lineno}: empty field")
        try:
            date = dt.date.fromisoformat(datestr)
        except ValueError as exc:
            raise DataError(f"<stream>:{lineno}: bad date {datestr!r}: {exc}") from None
        out.append((subject, predicate, obj, date))
    return QuadrupleColumns(*(list(column) for column in zip(*out))) if out else facts()


def rows_of(columns):
    return list(zip(columns.subjects, columns.predicates, columns.objects, columns.dates))


def reference_vocab(*splits):
    entities, relations, dates = {}, {}, set()
    for subject, predicate, obj, date in (row for split in splits for row in rows_of(split)):
        for token in (subject, obj):
            entities.setdefault(token, len(entities))
        relations.setdefault(predicate, len(relations))
        dates.add(date)
    return Vocab(list(entities), list(relations), sorted(dates))


def reference_index(raw_quads, vocab):
    rows = rows_of(raw_quads)
    out = np.empty((len(rows), 4), dtype=np.int64)
    for i, (subject, predicate, obj, date) in enumerate(rows):
        for j, (index, token, kind) in enumerate([
                (vocab.ent_index, subject, "entity"),
                (vocab.rel_index, predicate, "relation"),
                (vocab.ent_index, obj, "entity"),
                (vocab.date_index, date, "date")]):
            if token not in index:
                shown = token.isoformat() if kind == "date" else repr(token)
                raise OovError(f"{kind} {shown} not in vocabulary")
            out[i, j] = index[token]
    return out


def outcome(call, *args):
    """A call's result (parsed columns as a dict), or its error's type and message."""
    try:
        result = call(*args)
        return vars(result) if isinstance(result, QuadrupleColumns) else result
    except DataError as exc:
        return type(exc), str(exc)


DATES = ["2014-01-01", "2014-01-02", "2014-02-28", "2015-12-31"] + (
    ["20140101", "2014-W01-3"] if sys.version_info >= (3, 11) else [])
padded = st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "  "]),
                   st.text("abAé0", min_size=1, max_size=3),
                   st.sampled_from(["", "", "\u2028x", "\x85y"]), st.sampled_from(["", " "]))
fact_lines = st.builds("\t".join, st.tuples(
    padded, padded, padded, st.builds(" {}".format, st.sampled_from(DATES))))
blank_lines = st.sampled_from(["", " ", "\t ", " \x0b "])
junk_lines = st.sampled_from(["a\tp\tb", "a\tp\tb\t2014-01-01\tx", "a\t \tb\t2014-01-01",
                              "a\tp\tb\t2014-13-01", "a\tp\tb\t", "a\tp\tb\t14-1-1"])
endings = st.sampled_from(["\n", "\r\n", "\r"])


def files(lines, min_size=0, max_size=12):
    return st.builds(
        lambda pairs, last: "".join(line + end for line, end in pairs) + last,
        st.lists(st.tuples(lines, endings), min_size=min_size, max_size=max_size),
        st.sampled_from(["", "a\tq\tb\t2014-01-01"]))


class TestColumnarMatchesPerLineReference:
    @settings(max_examples=150, deadline=None)
    @given(files(st.one_of(fact_lines, fact_lines, blank_lines)),
           files(st.one_of(fact_lines, blank_lines)), files(fact_lines))
    def test_parse_vocab_index_equal_reference(self, train, valid, test):
        raws = [parse_quadruples(text) for text in (train, valid, test)]
        expected = [reference_parse(text) for text in (train, valid, test)]
        assert list(map(vars, raws)) == list(map(vars, expected))
        vocab, ref_vocab = build_vocab(*raws), reference_vocab(*expected)
        assert (vocab.entities, vocab.relations, vocab.dates) == (
            ref_vocab.entities, ref_vocab.relations, ref_vocab.dates)
        assert vocab.hashes() == ref_vocab.hashes()
        for split, ref_split in zip(raws, expected):
            np.testing.assert_array_equal(index_quadruples(split, vocab),
                                          reference_index(ref_split, ref_vocab))
        # a vocabulary of train alone: the same facts or the same first unknown token
        train_vocab = build_vocab(raws[0])
        for split, ref_split in zip(raws[1:], expected[1:]):
            got = outcome(index_quadruples, split, train_vocab)
            want = outcome(reference_index, ref_split, reference_vocab(expected[0]))
            if isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want

    @settings(max_examples=150, deadline=None)
    @given(files(st.one_of(fact_lines, blank_lines, junk_lines)))
    def test_errors_equal_reference(self, text):
        assert outcome(parse_quadruples, text) == outcome(reference_parse, text)
        assert outcome(parse_quadruples, text.encode()) == outcome(reference_parse, text)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="date.fromisoformat takes basic-format dates from 3.11")
    def test_two_spellings_of_one_date_share_a_timestamp(self):
        quads = parse_quadruples("A\tp\tB\t2014-01-01\nB\tp\tA\t20140101\n")
        vocab = build_vocab(quads)
        assert vocab.dates == [dt.date(2014, 1, 1)]
        np.testing.assert_array_equal(index_quadruples(quads, vocab)[:, 3], [0, 0])


def distinct_objects(columns):
    return len({id(x) for column in vars(columns).values() for x in column})


class TestBlockEdges:
    """Lines are split a block of ``_BLOCK`` kept lines at a time; these
    files span 3 or more blocks, with what a line may hold at their edges."""

    BLOCK = 4
    JUNK = ["e1\tr1\te2", "e1\tr1\te2\t2014-01-01\tx", "e1\t \te2\t2014-01-01",
            "e1\tr1\t\t2014-01-01", "e1\tr1\te2\t2014-02-30"]

    def text(self, bad=()):
        """15 kept lines, 4 blocks: each block's first line padded and ending
        in CRLF after a blank line, its last one ending in CR before a blank
        line; ``bad`` maps kept rows to the lines that replace them."""
        bad, out = dict(bad), []
        for row in range(15):
            fields = [f"e{row % 5}", f"r{row % 3}", f"e{(row + 2) % 5}", f"2014-01-{row + 1:02d}"]
            if row % self.BLOCK == 0:
                out += [" \t \n", bad.get(row, "\t".join(f" {f}  " for f in fields)) + "\r\n"]
            elif row % self.BLOCK == self.BLOCK - 1:
                out += [bad.get(row, "\t".join(fields)) + "\r", "\r\n"]
            else:
                out.append(bad.get(row, "\t".join(fields)) + "\n")
        return "".join(out)

    def test_padded_edges_equal_reference(self, monkeypatch):
        monkeypatch.setattr(datasets, "_BLOCK", self.BLOCK)
        text = self.text()
        quads = parse_quadruples(text.encode())
        assert vars(quads) == vars(reference_parse(text))
        assert quads.subjects[4::4] == ["e4", "e3", "e2"]  # first lines of blocks 2-4
        assert distinct_objects(quads) == 5 + 3 + 15

    @pytest.mark.parametrize("row", [4, 7, 8, 11, 12, 14])  # first/last of blocks 2, 3, 4
    @pytest.mark.parametrize("junk", JUNK)
    def test_malformed_edge_line_equals_reference(self, monkeypatch, row, junk):
        monkeypatch.setattr(datasets, "_BLOCK", self.BLOCK)
        text = self.text({row: junk})
        assert outcome(parse_quadruples, text) == outcome(reference_parse, text)
        assert outcome(parse_quadruples, text.encode()) == outcome(reference_parse, text)
        assert outcome(reference_parse, text)[0] is DataError

    @pytest.mark.parametrize("first, second", [(7, 8), (8, 11), (4, 12)])
    @pytest.mark.parametrize("junk", [(JUNK[4], JUNK[2]), (JUNK[3], JUNK[4]), (JUNK[4], JUNK[0])])
    def test_first_malformed_line_across_blocks(self, monkeypatch, first, second, junk):
        # a bad date ranks after a column error on its own line, never on a later one
        monkeypatch.setattr(datasets, "_BLOCK", self.BLOCK)
        text = self.text({first: junk[0], second: junk[1]})
        want = outcome(reference_parse, text)
        lineno = len(io.StringIO(text[:text.index(junk[0])], newline=None).readlines()) + 1
        assert want[1].startswith(f"<stream>:{lineno}:")
        assert outcome(parse_quadruples, text) == want

    @settings(max_examples=150, deadline=None)
    @given(files(st.one_of(fact_lines, fact_lines, fact_lines, blank_lines, junk_lines),
                 min_size=12, max_size=30), st.integers(1, 3))
    def test_many_blocks_equal_reference(self, text, block):
        with mock.patch.object(datasets, "_BLOCK", block):
            got = outcome(parse_quadruples, text)
            assert got == outcome(reference_parse, text)
            assert outcome(parse_quadruples, text.encode()) == got

    def test_one_string_per_token_and_half_the_peak(self, monkeypatch):
        # 11 blocks of facts over 600 entities, 40 relations and 365 days
        rng = np.random.default_rng(3)
        n = 45_000
        days = [dt.date(2014, 1, 1) + dt.timedelta(days=i) for i in range(365)]
        s, o = rng.integers(0, 600, (2, n))
        p, t = rng.integers(0, 40, n), rng.integers(0, 365, n)
        text = "".join(f"entity {a}\trelation {b}\tentity {c}\t{days[d]}\n"
                       for a, b, c, d in zip(s, p, o, t))
        quads = parse_quadruples(text)
        assert distinct_objects(quads) == len(set().union(*vars(quads).values()))
        assert n > 10 * datasets._BLOCK

        def traced_peak():
            tracemalloc.start()
            try:
                parse_quadruples(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked = traced_peak()
        monkeypatch.setattr(datasets, "_BLOCK", n)  # one block: every field string at once
        assert 2 * blocked <= traced_peak()


class TestReciprocal:
    def test_doubles_with_shifted_relation(self):
        quads = np.array([[0, 1, 2, 5]])
        out = augment_reciprocal(quads, num_relations=3)
        np.testing.assert_array_equal(out, [[0, 1, 2, 5], [2, 4, 0, 5]])

    def test_empty(self):
        out = augment_reciprocal(np.zeros((0, 4), dtype=np.int64), 3)
        assert out.shape == (0, 4)

    def test_double_augmentation_rejected(self):
        quads = np.array([[0, 3, 2, 5]])
        with pytest.raises(DataError, match="already augmented"):
            augment_reciprocal(quads, num_relations=3)

    def test_involution_recovers_original_half(self):
        rng = np.random.default_rng(0)
        n_rel = 4
        quads = np.stack([
            rng.integers(0, 9, size=50),
            rng.integers(0, n_rel, size=50),
            rng.integers(0, 9, size=50),
            rng.integers(0, 6, size=50),
        ], axis=1)
        out = augment_reciprocal(quads, n_rel)
        assert out.shape[0] == 2 * quads.shape[0]
        second = out[quads.shape[0]:]
        undone = second[:, [2, 1, 0, 3]].copy()
        undone[:, 1] -= n_rel
        np.testing.assert_array_equal(undone, quads)


class TestResample:
    def test_identity_rate(self):
        quads = np.array([[0, 0, 1, 7], [1, 0, 0, 3]])
        out, count = resample_time(quads, 1, 10)
        np.testing.assert_array_equal(out, quads)
        assert count == 10

    def test_floor_division(self):
        out, count = resample_time(np.array([[0, 0, 1, 7]]), 4, 10)
        assert out[0, 3] == 1
        assert count == 3  # ceil(10 / 4)

    def test_degenerates_to_static(self):
        quads = np.stack([np.zeros(365, dtype=np.int64)] * 3 +
                         [np.arange(365)], axis=1)
        out, count = resample_time(quads, 1024, 365)
        assert count == 1
        assert (out[:, 3] == 0).all()

    def test_zero_rate_rejected(self):
        with pytest.raises(DataError):
            resample_time(np.zeros((1, 4), dtype=np.int64), 0, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 200),
           st.integers(0, 2**32 - 1))
    def test_monotone_and_composable(self, a, b, num_t, seed):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.integers(0, num_t, size=20))
        quads = np.stack([np.zeros(20, dtype=np.int64)] * 3 + [ts], axis=1)
        once, count_a = resample_time(quads, a, num_t)
        assert (np.diff(once[:, 3]) >= 0).all()
        twice, count_ab = resample_time(once, b, count_a)
        direct, count_direct = resample_time(quads, a * b, num_t)
        np.testing.assert_array_equal(twice, direct)
        assert count_ab == count_direct


class TestGrouping:
    def test_groups_share_key(self):
        quads = np.array([[0, 1, 2, 5], [0, 1, 3, 5]])
        targets = group_targets(quads)
        assert set(targets) == {(0, 1, 5)}
        np.testing.assert_array_equal(targets[(0, 1, 5)], [2, 3])

    def test_disjoint_keys_are_singletons(self):
        quads = np.array([[0, 1, 2, 5], [1, 1, 2, 5], [0, 2, 2, 5]])
        targets = group_targets(quads)
        assert len(targets) == 3
        assert all(len(objs) == 1 for objs in targets.values())

    def test_empty(self):
        assert group_targets(np.zeros((0, 4), dtype=np.int64)) == {}

    def test_partition_counts_cover_all_quads(self):
        rng = np.random.default_rng(1)
        quads = np.stack([
            rng.integers(0, 5, size=200), rng.integers(0, 3, size=200),
            rng.integers(0, 5, size=200), rng.integers(0, 4, size=200),
        ], axis=1)
        targets = group_targets(quads)
        covered = sum(
            1 for s, p, o, t in quads
            if o in targets[(int(s), int(p), int(t))]
        )
        assert covered == quads.shape[0]


def dict_of_sets_targets(quads):
    """Loop reference: (s, p, t) -> sorted unique objects."""
    groups = {}
    for s, p, o, t in np.asarray(quads).tolist():
        groups.setdefault((s, p, t), set()).add(o)
    return {key: np.array(sorted(objs), dtype=np.int64) for key, objs in groups.items()}


def random_quads(rng, size, bounds=(6, 4, 6, 5)):
    quads = np.stack([rng.integers(0, b, size=size) for b in bounds], axis=1)
    # repeat some facts verbatim so that duplicates must be dropped
    return np.concatenate([quads, quads[rng.integers(0, size, size=size // 3)]])


HUGE = st.one_of(st.integers(2**63, 2**80), st.integers(-2**80, -2**63 - 1))
NOT_INTEGER_KEYS = st.one_of(
    st.tuples(HUGE, st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.integers(0, 5), st.integers(0, 3), HUGE),
    st.tuples(st.integers(0, 5), st.floats(), st.integers(0, 4)),
    st.tuples(st.integers(0, 5), st.integers(0, 3)),
    st.tuples(*[st.integers(0, 3)] * 4),
    st.text(max_size=3), st.integers(), st.none())


class TestTargetIndex:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_of_sets_reference(self, seed):
        rng = np.random.default_rng(seed)
        quads = random_quads(rng, 300)
        index = group_targets(quads)
        reference = dict_of_sets_targets(quads)
        assert list(index) == sorted(reference)
        np.testing.assert_array_equal(index.key_array, sorted(reference))
        for key, objs in reference.items():
            assert index[key].dtype == np.int64
            np.testing.assert_array_equal(index[key], objs)
        rows, objects = index.lookup(index.key_array[::-1])
        expected = [reference[key] for key in sorted(reference)[::-1]]
        np.testing.assert_array_equal(objects, np.concatenate(expected))
        np.testing.assert_array_equal(
            rows, np.repeat(np.arange(len(expected)), [e.size for e in expected]))

    def test_is_a_read_only_mapping(self):
        index = group_targets(np.array([[0, 1, 2, 5], [0, 1, 3, 5], [4, 0, 1, 0]]))
        assert isinstance(index, TargetIndex)
        assert (0, 1, 5) in index and (0, 1, 4) not in index
        assert index.get((9, 9, 9)) is None
        assert dict(index.items()).keys() == {(0, 1, 5), (4, 0, 0)}
        assert [v.tolist() for v in index.values()] == [[2, 3], [1]]
        with pytest.raises(ValueError):
            index[(0, 1, 5)][0] = 7
        assert index != {}

    def test_out_of_range_components_never_alias(self):
        # bounds are S=3, P=2, T=2: (0, 2, 1) packs like (1, 0, 1) and
        # clamps to (0, 1, 1), both of which are indexed
        index = group_targets(np.array([[1, 0, 4, 1], [2, 1, 5, 0], [0, 1, 6, 1]]))
        assert index.bounds == (3, 2, 2)
        for key in [(0, 2, 1), (0, 1, 3), (-1, 0, 1), (1, -1, 1), (3, 0, 0),
                    (1, 0, 1, 0), (1, 0), (1.0, 0, 1), "abc", 7]:
            with pytest.raises(KeyError):
                index[key]
            assert key not in index
        np.testing.assert_array_equal(index[(1, 0, 1)], [4])
        np.testing.assert_array_equal(index[(np.int64(2), np.int32(1), 0)], [5])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_getitem_agrees_with_lookup(self, seed, data):
        index = group_targets(random_quads(np.random.default_rng(seed), 30))
        indexed = st.sampled_from([tuple(key) for key in index.key_array.tolist()])
        near = st.tuples(*[st.integers(-2, 7)] * 3)  # bounds are (6, 4, 5)
        for key in data.draw(st.lists(st.one_of(indexed, near), min_size=1, max_size=20)):
            try:
                _, objects = index.lookup([key])
            except MissingKeyError:
                with pytest.raises(KeyError):
                    index[key]
                continue
            got = index[key]
            np.testing.assert_array_equal(got, objects)
            assert not got.flags.writeable
        for key in data.draw(st.lists(NOT_INTEGER_KEYS, max_size=5)):
            with pytest.raises(KeyError):
                index[key]

    def test_batch_lookup_names_first_missing_key(self):
        index = group_targets(np.array([[1, 0, 4, 1], [2, 1, 5, 0], [0, 1, 6, 1]]))
        for missing in ([0, 2, 1], [1, 0, -1], [2, 1, 1], [5, 0, 0]):
            batch = np.array([[2, 1, 0], missing, [0, 2, 1]])
            with pytest.raises(MissingKeyError) as info:
                index.lookup(batch)
            assert isinstance(info.value, DataError)
            assert info.value.key == tuple(missing)
            assert str(tuple(missing)) in str(info.value)

    def test_empty(self):
        index = group_targets(np.zeros((0, 4), dtype=np.int64))
        assert len(index) == 0 and list(index) == []
        assert index.key_array.shape == (0, 3)
        rows, objects = index.lookup(np.zeros((0, 3), dtype=np.int64))
        assert rows.size == objects.size == 0
        with pytest.raises(MissingKeyError):
            index.lookup([[0, 0, 0]])

    def test_negative_index_refused(self):
        with pytest.raises(DataError, match="negative"):
            group_targets(np.array([[0, 0, 1, 0], [0, -1, 1, 0]]))

    def test_key_space_overflow_refused(self):
        big = np.array([[2**40, 2**15, 0, 2**10]])
        with pytest.raises(DataError, match="overflow"):
            group_targets(big)
        # just inside int64: S * P * T = 2**62
        index = group_targets(np.array([[2**40 - 1, 2**12 - 1, 3, 2**10 - 1]]))
        np.testing.assert_array_equal(index[(2**40 - 1, 2**12 - 1, 2**10 - 1)], [3])


class TestStatsAndLoading:
    def test_stats_fields(self):
        train = facts(("A", "p", "B", "2014-01-03"), ("B", "p", "A", "2014-01-01"))
        vocab = build_vocab(train)
        empty = np.zeros((0, 4), dtype=np.int64)
        stats = Dataset(vocab, index_quadruples(train, vocab), empty, empty).stats()
        assert stats == {
            "num_entities": 2, "num_relations": 1, "num_timestamps": 2,
            "num_train": 2, "num_valid": 0, "num_test": 0,
            "date_min": "2014-01-01", "date_max": "2014-01-03",
        }

    def test_bundled_synthetic_dataset(self):
        ds = Dataset.from_dir(synthetic_dataset_dir())
        stats = ds.stats()
        assert stats["num_train"] + stats["num_valid"] + stats["num_test"] == 200
        assert stats["num_entities"] == 40
        assert stats["num_relations"] == 6
        assert stats["num_timestamps"] == 20

    def test_bundled_dataset_matches_its_generator(self):
        spec = importlib.util.spec_from_file_location(
            "make_synthetic_dataset", ROOT / "tools" / "make_synthetic_dataset.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        files = tool.render(tool.covering_splits()[1])
        assert sorted(files) == ["test.txt", "train.txt", "valid.txt"]
        for name, data in files.items():
            assert (synthetic_dataset_dir() / name).read_bytes() == data, name

    def test_missing_directory(self):
        with pytest.raises(DataError):
            Dataset.from_dir("/nonexistent/path")

    def test_missing_split_file(self, tmp_path):
        (tmp_path / "train.txt").write_text("A\tp\tB\t2014-01-01\n")
        with pytest.raises(DataError, match="valid"):
            Dataset.from_dir(tmp_path)

    def test_loads_plain_filenames(self, tmp_path):
        for name in ("train", "valid", "test"):
            (tmp_path / name).write_text("A\tp\tB\t2014-01-01\n")
        ds = Dataset.from_dir(tmp_path)
        assert ds.train.shape == (1, 4)

    def test_from_dir_runs_the_benchmark_traced_stages(self, monkeypatch):
        # perfbench traces these three by name; from_dir must keep calling them
        calls = collections.Counter()
        for name in ("parse_quadruples", "build_vocab", "index_quadruples"):
            def counted(*args, _stage=getattr(datasets, name), _name=name, **kwargs):
                calls[_name] += 1
                return _stage(*args, **kwargs)
            monkeypatch.setattr(datasets, name, counted)
        Dataset.from_dir(synthetic_dataset_dir())
        assert calls == {"parse_quadruples": 3, "build_vocab": 1, "index_quadruples": 3}
