from __future__ import annotations

import json
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbsflow.corpus import (
    CorpusError,
    Document,
    IngestConfig,
    IngestReport,
    assign_windows,
    build_windows,
    load_corpus,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def make_record(i, day, **extra):
    rec = {"id": f"d{i}", "date": day, "title": f"t{i}", "body": f"b{i}", "source": "s"}
    rec.update(extra)
    return rec


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        report = IngestReport()
        assert list(load_corpus(p, report=report)) == []
        assert report.records == 0
        assert report.rejects == []

    def test_bad_date_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(
            p,
            [
                make_record(1, "2020-01-01"),
                make_record(2, "2020-01-02"),
                make_record(3, "2020-13-40"),
                make_record(4, "2020-01-04"),
            ],
        )
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert len(docs) == 3
        assert len(report.rejects) == 1
        line_no, reason = report.rejects[0]
        assert line_no == 3
        assert "2020-13-40" in reason

    def test_preserves_file_order(self, tmp_path):
        p = tmp_path / "c.jsonl"
        records = [make_record(i, "2020-01-01") for i in range(1, 11)]
        write_jsonl(p, records)
        # oracle: direct line-by-line read of the same file
        expected = [json.loads(line)["id"] for line in p.read_text().splitlines()]
        got = [d.id for d in load_corpus(p)]
        assert got == expected == [f"d{i}" for i in range(1, 11)]

    def test_missing_id_and_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(
            p,
            [
                make_record(1, "2020-01-01"),
                {"date": "2020-01-01", "title": "x", "body": "y"},
                make_record(1, "2020-01-02"),
            ],
        )
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert [d.id for d in docs] == ["d1"]
        assert [line for line, _ in report.rejects] == [2, 3]

    def test_id_zero_is_an_id(self, tmp_path):
        # a falsy id used to be refused as missing
        p = tmp_path / "c.jsonl"
        write_jsonl(
            p,
            [
                make_record(0, "2020-01-01", id=0),
                make_record(1, "2020-01-01", id="0"),
                make_record(2, "2020-01-01", id=None),
                make_record(3, "2020-01-01", id=" "),
            ],
        )
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert [d.id for d in docs] == ["0"]
        assert report.rejects == [
            (2, "duplicate id '0'"),
            (3, "missing or empty 'id'"),
            (4, "missing or empty 'id'"),
        ]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            list(load_corpus(tmp_path / "nope.jsonl"))

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "date": "2020-01-01"}\nnot json\n')
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert len(docs) == 1
        assert report.rejects[0][0] == 2

    def test_csv_ingest_same_contract(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "doc_id,published,headline,content\n"
            "a,2020-01-01,T,Body\n"
            ",2020-01-02,T,Body\n"
            "b,bad-date,T,Body\n"
            "c,2020-01-03,T,Body\n"
        )
        cfg = IngestConfig(
            format="csv", id_field="doc_id", date_field="published",
            title_field="headline", body_field="content",
        )
        report = IngestReport()
        docs = list(load_corpus(p, cfg, report))
        assert [d.id for d in docs] == ["a", "c"]
        assert sorted(line for line, _ in report.rejects) == [3, 4]

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"title": ["x", "y"], "body": {"k": "v"}}, "'title' must be a string or null, got an array"),
            ({"title": True, "body": 12.5}, "'title' must be a string or null, got a boolean"),
            ({"title": 7}, "'title' must be a string or null, got a number"),
            ({"body": 12.5}, "'body' must be a string or null, got a number"),
            ({"body": {"k": "v"}}, "'body' must be a string or null, got an object"),
            ({"id": True}, "'id' must be a string or a number, got a boolean"),
            ({"id": ["d1"]}, "'id' must be a string or a number, got an array"),
            ({"id": {"n": 1}}, "'id' must be a string or a number, got an object"),
        ],
        ids=["title_array", "title_bool", "title_number", "body_number", "body_object",
             "id_bool", "id_array", "id_object"],
    )
    def test_field_of_the_wrong_json_type_rejected(self, tmp_path, fields, reason):
        # such a field used to be analysed as its Python repr, e.g. "['x', 'y']. {'k': 'v'}"
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [make_record(0, "2020-01-01"), make_record(1, "2020-01-01", **fields)])
        report = IngestReport()
        assert [d.id for d in load_corpus(p, report=report)] == ["d0"]
        assert report.rejects == [(2, reason)]

    def test_numeric_id_and_null_text_fields_kept(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(
            p, [make_record(0, "2020-01-01", id=7, title=None), make_record(1, "2020-01-01", id=2.5, body=None)]
        )
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert [(d.id, d.title, d.body) for d in docs] == [("7", "", "b0"), ("2.5", "t1", "")]
        assert report.rejects == []

    def test_non_finite_number_id_rejected(self, tmp_path):
        # json.loads took these as the ids 'nan' and 'inf', and 1e400 as a second 'inf'
        p = tmp_path / "c.jsonl"
        lines = [json.dumps(make_record(0, "2020-01-01"))]
        lines += [json.dumps(make_record(i, "2020-01-01")).replace(f'"d{i}"', raw) for i, raw in
                  enumerate(["NaN", "Infinity", "1e400"], start=1)]
        p.write_text("\n".join(lines) + "\n")
        report = IngestReport()
        assert [d.id for d in load_corpus(p, report=report)] == ["d0"]
        assert report.rejects == [
            (2, "'id' must be a finite number, got nan"),
            (3, "'id' must be a finite number, got inf"),
            (4, "'id' must be a finite number, got inf"),
        ]

    def test_csv_record_rejected_at_the_line_where_it_starts(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "id,date,title,body\n"
            ',2020-01-01,T,"first\nsecond\nthird"\n'  # lines 2-4, no id
            "\n"  # line 5, blank
            ",2020-01-02,T,Body\n"  # line 6, no id
            'a,2020-01-03,T,"two\nlines"\n'  # lines 7-8
            "b,bad-date,T,Body\n"  # line 9
        )
        report = IngestReport()
        docs = list(load_corpus(p, IngestConfig(format="csv"), report))
        assert [(d.id, d.body) for d in docs] == [("a", "two\nlines")]
        assert [line for line, _ in report.rejects] == [2, 6, 9]
        assert report.records == 4

    def test_custom_date_format(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [make_record(1, "01/02/2020")])
        cfg = IngestConfig(date_format="%d/%m/%Y")
        docs = list(load_corpus(p, cfg))
        assert docs[0].published_at == date(2020, 2, 1)


def assign(docs, start, end):
    """The run's grid for [start, end) and the documents bucketed into it."""
    windows = build_windows(start, end)
    return windows, assign_windows(docs, windows, end)


class TestWindows:
    def test_doc_on_start_lands_in_window_zero(self):
        start = date(2020, 1, 6)
        doc = Document("a", start, "", "")
        _, out = assign([doc], start, start + timedelta(days=14))
        assert out.by_window[0] == [doc]

    def test_doc_on_start_plus_seven_lands_in_window_one(self):
        start = date(2020, 1, 6)
        doc = Document("a", start + timedelta(days=7), "", "")
        _, out = assign([doc], start, start + timedelta(days=14))
        assert out.by_window[1] == [doc]
        assert out.by_window[0] == []

    def test_uniform_28_days_gives_four_equal_windows(self):
        start = date(2020, 3, 2)
        # 25 documents per 7-day block, dates cycling within each block
        docs = [
            Document(f"d{i}", start + timedelta(days=(i % 4) * 7 + (i // 4) % 7), "", "")
            for i in range(100)
        ]
        windows, out = assign(docs, start, start + timedelta(days=28))
        assert len(windows) == 4
        # oracle: brute-force date arithmetic per document
        expected = {i: 0 for i in range(4)}
        for d in docs:
            expected[(d.published_at - start).days // 7] += 1
        assert {i: len(v) for i, v in out.by_window.items()} == expected == {0: 25, 1: 25, 2: 25, 3: 25}

    def test_out_of_range_counted(self):
        start = date(2020, 1, 6)
        docs = [
            Document("early", start - timedelta(days=1), "", ""),
            Document("late", start + timedelta(days=14), "", ""),
            Document("in", start + timedelta(days=3), "", ""),
        ]
        _, out = assign(docs, start, start + timedelta(days=14))
        assert out.excluded == 2
        assert out.assigned == 1

    def test_doc_in_the_overhang_of_the_last_window_excluded(self):
        # the last window runs past `end`; documents dated there stay out
        start = date(2020, 1, 6)
        docs = [Document("in", start + timedelta(days=9), "", ""),
                Document("overhang", start + timedelta(days=12), "", "")]
        windows, out = assign(docs, start, start + timedelta(days=10))
        assert windows[-1].end_date == start + timedelta(days=14)
        assert out.by_window == {0: [], 1: [docs[0]]}
        assert out.excluded == 1

    def test_start_after_end_fatal(self):
        with pytest.raises(CorpusError):
            build_windows(date(2020, 1, 6), date(2020, 1, 6))

    def test_windows_are_consecutive_7_day_blocks(self):
        windows = build_windows(date(2020, 1, 6), date(2020, 3, 1))
        for w in windows:
            assert (w.end_date - w.start_date).days == 7
        for prev, nxt in zip(windows, windows[1:]):
            assert prev.end_date == nxt.start_date
            assert nxt.index == prev.index + 1

    @given(
        offsets=st.lists(st.integers(min_value=-30, max_value=120), max_size=60),
    )
    def test_partition_property(self, offsets):
        start = date(2021, 5, 3)
        end = date(2021, 7, 26)
        docs = [
            Document(f"d{i}", start + timedelta(days=off), "", "")
            for i, off in enumerate(offsets)
        ]
        windows, out = assign(docs, start, end)
        assert out.assigned + out.excluded == len(docs)
        for w in windows:
            for doc in out.by_window[w.index]:
                assert w.start_date <= doc.published_at < w.end_date

    def test_shard_merge_independence(self):
        start = date(2021, 5, 3)
        end = date(2021, 8, 2)
        docs = [
            Document(f"d{i}", start + timedelta(days=(i * 5) % 80), "", "")
            for i in range(200)
        ]
        windows, whole = assign(docs, start, end)
        merged: dict[int, list] = {w.index: [] for w in windows}
        for shard in (docs[:67], docs[67:150], docs[150:]):
            part = assign_windows(shard, windows, end)
            for idx, items in part.by_window.items():
                merged[idx].extend(items)
        assert {k: [d.id for d in v] for k, v in merged.items()} == {
            k: [d.id for d in v] for k, v in whole.by_window.items()
        }

    def test_determinism(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [make_record(i, f"2020-01-{(i % 28) + 1:02d}") for i in range(50)])
        runs = []
        for _ in range(2):
            docs = list(load_corpus(p))
            _, out = assign(docs, date(2020, 1, 1), date(2020, 2, 1))
            runs.append({k: [d.id for d in v] for k, v in out.by_window.items()})
        assert runs[0] == runs[1]
