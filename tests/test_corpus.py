from __future__ import annotations

import csv
import io
import json
import sys
from datetime import date, datetime, timedelta
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sbsflow import corpus
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

    def test_unknown_format_fatal(self, tmp_path):
        p = tmp_path / "c.xml"
        p.write_text("<corpus/>\n")
        with pytest.raises(CorpusError, match="unknown corpus format 'xml'"):
            list(load_corpus(p, IngestConfig(format="xml")))

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

    def test_csv_record_with_the_wrong_cell_count_rejected(self, tmp_path):
        # zip used to drop the cells past the header's and leave missing ones absent
        p = tmp_path / "c.csv"
        p.write_text(
            "id,date,title,body\n"
            "1,2021-01-04,Rates,the euro rose, then the rate fell\n"
            "2,2021-01-05,Short\n"
            "3,2021-01-06,Kept,body\n"
        )
        report = IngestReport()
        assert [d.id for d in load_corpus(p, IngestConfig(format="csv"), report)] == ["3"]
        assert report.rejects == [(2, "expected 4 cells, got 5"), (3, "expected 4 cells, got 3")]
        assert report.records == 3

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_byte_order_mark_is_not_part_of_the_first_record(self, tmp_path, fmt):
        # a CSV header cell '\ufeffid' rejected every record; the first JSON line was invalid
        text = {
            "jsonl": json.dumps(make_record(0, "2020-01-01")) + "\n",
            "csv": "id,date,title,body\nd0,2020-01-01,t0,b0\n",
        }[fmt]
        p = tmp_path / f"c.{fmt}"
        p.write_text(text, encoding="utf-8-sig")
        report = IngestReport()
        docs = list(load_corpus(p, IngestConfig(format=fmt), report))
        assert docs == [Document("d0", date(2020, 1, 1), "t0", "b0")]
        assert report.rejects == []

    def test_custom_date_format(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [make_record(1, "01/02/2020")])
        cfg = IngestConfig(date_format="%d/%m/%Y")
        docs = list(load_corpus(p, cfg))
        assert docs[0].published_at == date(2020, 2, 1)

    @pytest.mark.parametrize(
        "header, missing",
        [
            ("id,date,title,content", "'body'; name the file's columns in corpus.fields.body,"),
            ("id,date,body", "'title'; name the file's columns in corpus.fields.title,"),
            ("date,text", "'id', 'title', 'body'; name the file's columns in "
             "corpus.fields.id, corpus.fields.title, corpus.fields.body,"),
            ("", "'id', 'date', 'title', 'body';"),
        ],
        ids=["body", "title", "three", "no_header"],
    )
    def test_csv_header_without_a_configured_column_refused(self, tmp_path, header, missing):
        # a header without the body column used to load every record with an empty body
        p = tmp_path / "c.csv"
        p.write_text(f"{header}\n" + ("d0,2020-01-01,t0,b0\n" if header else ""))
        with pytest.raises(CorpusError, match="lacks the column") as err:
            list(load_corpus(p, IngestConfig(format="csv")))
        assert missing in str(err.value)
        assert str(p) in str(err.value)

    def test_each_distinct_date_string_is_parsed_once(self, tmp_path, monkeypatch):
        parsed = []

        class CountingDatetime(datetime):
            @classmethod
            def strptime(cls, text, fmt):
                parsed.append(text)
                return datetime.strptime(text, fmt)

        monkeypatch.setattr(corpus, "datetime", CountingDatetime)
        p = tmp_path / "c.jsonl"
        days = ["2020-01-01", " 2020-01-01", "2020-01-02", "2020-01-01 ", "2020-02-30", " 2020-02-30 "]
        write_jsonl(p, [make_record(i, day) for i, day in enumerate(days)])
        report = IngestReport()
        docs = list(load_corpus(p, report=report))
        assert sorted(parsed) == ["2020-01-01", "2020-01-02", "2020-02-30"]
        assert [d.published_at for d in docs] == [date(2020, 1, 1), date(2020, 1, 1), date(2020, 1, 2), date(2020, 1, 1)]
        # a string that does not parse is named as each record spells it
        assert report.rejects == [(5, "unparseable date '2020-02-30'"), (6, "unparseable date ' 2020-02-30 '")]

    @pytest.mark.parametrize(
        "header, named",
        [
            ("id,date,title,body,body", "'body' (corpus.fields.body)"),
            ("id,id,date,title,body,date", "'id' (corpus.fields.id), 'date' (corpus.fields.date)"),
        ],
    )
    def test_csv_header_repeating_a_configured_column_refused(self, tmp_path, header, named):
        # each body used to load silently from the last 'body' column
        p = tmp_path / "c.csv"
        p.write_text(f"{header}\n" + ",".join(f"c{i}" for i in range(header.count(",") + 1)) + "\n")
        with pytest.raises(CorpusError, match="more than once") as err:
            list(load_corpus(p, IngestConfig(format="csv")))
        assert f"names the column(s) {named} more than once" in str(err.value)
        assert str(p) in str(err.value)

    def test_csv_header_repeating_a_column_that_is_not_read_accepted(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("id,source,date,title,body,source\nd0,s,2020-01-01,t0,b0,s\n")
        assert list(load_corpus(p, IngestConfig(format="csv"))) == [Document("d0", date(2020, 1, 1), "t0", "b0")]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_record_that_is_not_utf8_rejected_at_the_line_where_it_starts(self, tmp_path, fmt):
        # a Latin-1 byte used to end the run with a bare UnicodeDecodeError
        if fmt == "jsonl":
            data = (
                b'{"id": "a", "date": "2020-01-01", "title": "t", "body": "b"}\n'
                b'{"id": "b", "date": "2020-01-01", "title": "t", "body": "caff\xe8"}\n'
                b'{"id": "c", "date": "2020-01-02", "title": "t", "body": "caff\xc3\xa8"}\n'
            )
            line = 2
        else:
            data = (
                b"id,date,title,body\r\n"
                b"a,2020-01-01,t,b\r\n"
                b'b,2020-01-01,t,"first\r\ncaff\xe8"\r\n'  # lines 3-4, the bad byte on line 4
                b"c,2020-01-02,t,caff\xc3\xa8\r\n"
            )
            line = 3
        p = tmp_path / f"c.{fmt}"
        p.write_bytes(data)
        report = IngestReport()
        docs = list(load_corpus(p, IngestConfig(format=fmt), report))
        assert [(d.id, d.body) for d in docs] == [("a", "b"), ("c", "caffè")]
        assert (report.records, report.loaded, report.rejects) == (3, 2, [(line, "not UTF-8 text")])
        # read at its position, the record is refused in the same words
        position = data.index({"jsonl": b'{"id": "b"', "csv": b"b,2020"}[fmt])
        again = IngestReport()
        assert list(load_corpus(p, IngestConfig(format=fmt), again, positions=[position, docs[1].position])) == docs[1:]
        assert again.rejects == [(position, "not UTF-8 text")]

    def test_csv_cell_over_the_csv_size_limit_refused_at_its_line(self, tmp_path):
        # a bare csv.Error used to end the run without a file or a line
        long_body = "x" * 200_000
        p = tmp_path / "c.csv"
        p.write_text(f'id,date,title,body\na,2020-01-01,t,b\n\nb,2020-01-02,t,"{long_body}\nmore"\nc,2020-01-03,t,b\n')
        with pytest.raises(CorpusError) as err:
            list(load_corpus(p, IngestConfig(format="csv")))
        message = str(err.value)
        assert message.startswith(f"CSV corpus {p}: the record at line 4 cannot be read")
        assert "131,072 characters, and JSON Lines has no such limit" in message
        # a positioned read of that record is refused at its byte
        position = p.read_bytes().index(b"b,2020-01-02")
        with pytest.raises(CorpusError, match=f"the record at byte {position} cannot be read"):
            list(load_corpus(p, IngestConfig(format="csv"), positions=[position]))
        # the same record loads from JSON Lines
        q = tmp_path / "c.jsonl"
        write_jsonl(q, [{"id": "b", "date": "2020-01-02", "title": "t", "body": long_body + "\nmore"}])
        assert [d.body for d in load_corpus(q)] == [long_body + "\nmore"]

    @pytest.mark.parametrize(
        "header, why",
        [
            (b"id,date,title,body," + b"x" * 200_000, "131,072 characters, and JSON Lines has no such limit"),
            (b"id,date,t\xe8tle,body", "not UTF-8 text"),
        ],
        ids=["cell_over_the_csv_limit", "not_utf8"],
    )
    def test_csv_header_that_cannot_be_read_refused_at_its_line(self, tmp_path, header, why):
        # a bare csv.Error, or a missing column 't\ufffdtle', used to end the run
        p = tmp_path / "c.csv"
        p.write_bytes(header + b"\nd0,2020-01-01,t0,b0\n")
        with pytest.raises(CorpusError) as err:
            list(load_corpus(p, IngestConfig(format="csv")))
        assert str(err.value).startswith(f"CSV corpus {p}: the header at line 1 cannot be read: ")
        assert str(err.value).endswith(why)

    def test_blank_lines_before_the_csv_header_skipped(self, tmp_path):
        # they used to be read as a header [] that lacked every column
        p = tmp_path / "c.csv"
        p.write_bytes(b"\xef\xbb\xbf\r\n\n\rid,date,title,body\n\nd0,2020-01-01,t0,b0\nd1,2020-01-01\n")
        report = IngestReport()
        docs = list(load_corpus(p, IngestConfig(format="csv"), report))
        assert docs == [Document("d0", date(2020, 1, 1), "t0", "b0")]
        assert report.rejects == [(7, "expected 4 cells, got 2")]
        assert list(load_corpus(p, IngestConfig(format="csv"), positions=[docs[0].position])) == docs

    @pytest.mark.parametrize("case", ["long_integer", "deep_nesting"])
    def test_valid_json_python_cannot_build_rejected_at_its_line(self, tmp_path, case):
        # a bare ValueError or RecursionError used to end ingest, even from a field never read
        limit = sys.get_int_max_str_digits()
        if case == "long_integer" and not limit:
            pytest.skip("integers have no digit limit in this interpreter")
        value, reason = {
            "long_integer": ("1" * (limit + 1), f"a number longer than Python's limit of {limit:,} digits"),
            "deep_nesting": ("[" * 100_000 + "]" * 100_000, "nested past Python's recursion limit"),
        }[case]
        p = tmp_path / "c.jsonl"
        lines = [json.dumps(make_record(i, "2020-01-01")) for i in range(3)]
        lines[1] = lines[1][:-1] + f', "extra": {value}}}'
        p.write_text("\n".join(lines) + "\n")
        report = IngestReport()
        assert [d.id for d in load_corpus(p, report=report)] == ["d0", "d2"]
        assert report.rejects == [(2, reason)]
        # read at its position, the record is refused in the same words
        position = len(lines[0]) + 1
        again = IngestReport()
        assert list(load_corpus(p, report=again, positions=[position])) == []
        assert again.rejects == [(position, reason)]


def every_reject_corpus(fmt: str) -> bytes:
    """A corpus with every kind of reject, lone-CR and CRLF line ends, a
    byte-order mark (CSV) and bodies whose quoted fields span lines."""
    ok = {"title": "t", "body": "b"}
    if fmt == "jsonl":
        lines = [
            (json.dumps({"id": "d1", "date": "2020-01-01", **ok}), "\n"),
            ("   ", "\n"),
            ("not json", "\r\n"),
            ("[1, 2]", "\n"),
            (json.dumps({"id": True, "date": "2020-01-01", **ok}), "\n"),
            (json.dumps({"id": ["a"], "date": "2020-01-01", **ok}), "\n"),
            (json.dumps({"id": "x1", "date": "2020-01-01", "title": 7, "body": "b"}), "\r"),
            (json.dumps({"id": "x2", "date": "2020-01-01", "title": "t", "body": {"k": 1}}), "\n"),
            ('{"id": NaN, "date": "2020-01-01"}', "\n"),
            (json.dumps({"id": " ", "date": "2020-01-01", **ok}), "\n"),
            (json.dumps({"id": "d1", "date": "2020-01-02", **ok}), "\n"),
            (json.dumps({"id": "d2", **ok}), "\n"),
            (json.dumps({"id": "d3", "date": " 2020-13-01", **ok}), "\n"),
            (json.dumps({"id": "d4", "date": "2020-13-01 ", **ok}), "\r\n"),
            (json.dumps({"id": "d5", "date": " 2020-01-02 ", "title": None, "body": "caffe\u0301 \u00e8"}), "\r"),
            (json.dumps({"id": 7, "date": "2020-01-02", "title": "line\u2028sep", "body": None}), ""),
        ]
        return "".join(line + end for line, end in lines).encode("utf-8")
    text = (
        "id,date,title,body\r\n"
        'a,2020-01-01,T,"first\r\nsecond"\r\n'
        "\r\n"
        ",2020-01-02,T,B\r\n"
        "b,bad,T,B\r\n"
        "c,2020-01-03,T\r\n"
        "a,2020-01-03,T,B\r\n"
        "d,,T,B\r\n"
        'e,2020-01-04,T,"x\ny"\r\n'
        "f, 2020-01-05 ,,caffe\u0301\r\n"
        'g,bad ,T,"q ""quoted"" \r\n\r\n"\r\n'
    )
    return b"\xef\xbb\xbf" + text.encode("utf-8")


# (records, loaded, documents, rejects) of every_reject_corpus, line by line
EVERY_REJECT_REPORT = {
    "jsonl": (
        15,
        3,
        [("d1", "2020-01-01", "t", "b"), ("d5", "2020-01-02", "", "caffe\u0301 \u00e8"), ("7", "2020-01-02", "line\u2028sep", "")],
        [
            (3, "invalid JSON"),
            (4, "record is not an object"),
            (5, "'id' must be a string or a number, got a boolean"),
            (6, "'id' must be a string or a number, got an array"),
            (7, "'title' must be a string or null, got a number"),
            (8, "'body' must be a string or null, got an object"),
            (9, "'id' must be a finite number, got nan"),
            (10, "missing or empty 'id'"),
            (11, "duplicate id 'd1'"),
            (12, "missing 'date'"),
            (13, "unparseable date ' 2020-13-01'"),
            (14, "unparseable date '2020-13-01 '"),
        ],
    ),
    "csv": (
        9,
        3,
        [("a", "2020-01-01", "T", "first\r\nsecond"), ("e", "2020-01-04", "T", "x\ny"), ("f", "2020-01-05", "", "caffe\u0301")],
        [
            (5, "missing or empty 'id'"),
            (6, "unparseable date 'bad'"),
            (7, "expected 4 cells, got 3"),
            (8, "duplicate id 'a'"),
            (9, "missing 'date'"),
            (13, "unparseable date 'bad '"),
        ],
    ),
}


class TestPositions:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_every_kind_of_reject_keeps_its_count_and_line(self, tmp_path, fmt):
        p = tmp_path / f"c.{fmt}"
        p.write_bytes(every_reject_corpus(fmt))
        report = IngestReport()
        docs = list(load_corpus(p, IngestConfig(format=fmt), report))
        got = [(d.id, d.published_at.isoformat(), d.title, d.body) for d in docs]
        assert (report.records, report.loaded, got, report.rejects) == EVERY_REJECT_REPORT[fmt]
        # each accepted record is read again, and alone, at its position
        again = IngestReport()
        assert list(load_corpus(p, IngestConfig(format=fmt), again, positions=[d.position for d in docs])) == docs
        assert again.rejects == []

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_positions_are_where_the_records_start(self, tmp_path, fmt):
        p = tmp_path / f"c.{fmt}"
        p.write_bytes(every_reject_corpus(fmt))
        data = p.read_bytes()
        docs = list(load_corpus(p, IngestConfig(format=fmt)))
        starts = {"jsonl": [b'{"id": "d1"', b'{"id": "d5"', b'{"id": 7'], "csv": [b"a,2020-01-01", b"e,2020", b"f, 2020"]}[fmt]
        assert [d.position for d in docs] == [data.index(start) for start in starts]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_position_where_no_record_starts_is_rejected_at_that_byte(self, tmp_path, fmt):
        p = tmp_path / f"c.{fmt}"
        p.write_bytes(every_reject_corpus(fmt))
        docs = list(load_corpus(p, IngestConfig(format=fmt)))
        end = p.stat().st_size
        report = IngestReport()
        # read in the order given, not in file order
        positions = [docs[2].position, end, docs[0].position]
        assert list(load_corpus(p, IngestConfig(format=fmt), report, positions=positions)) == [docs[2], docs[0]]
        assert report.rejects == [(end, "no record starts here")]
        assert report.records == 3

    @given(
        records=st.lists(
            st.tuples(
                st.text(alphabet="ab é\u0301,\"\r\n", max_size=8),
                st.text(alphabet="ab é\u0301,\"\r\n.", max_size=20),
            ),
            max_size=8,
        ),
        line_end=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
        # reads that split records, \r\n pairs and multi-byte characters
        chunk=st.sampled_from([corpus._CHUNK]) | st.integers(min_value=1, max_value=16),
    )
    def test_every_document_reads_back_alone_at_its_position(self, tmp_path_factory, records, line_end, bom, chunk):
        tmp_path = tmp_path_factory.mktemp("positions")
        rows = [(f"d{i}", "2020-01-01", title, body) for i, (title, body) in enumerate(records)]
        texts = {"jsonl": "".join(json.dumps(dict(zip(("id", "date", "title", "body"), row))) + line_end for row in rows)}
        out = io.StringIO()
        # quoted throughout, since a cell holding a lone \r is otherwise left bare
        csv.writer(out, lineterminator=line_end, quoting=csv.QUOTE_ALL).writerows([("id", "date", "title", "body"), *rows])
        texts["csv"] = out.getvalue()
        for fmt, text in texts.items():
            p = tmp_path / f"c.{fmt}"
            p.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))
            with mock.patch.object(corpus, "_CHUNK", chunk):
                docs = list(load_corpus(p, IngestConfig(format=fmt)))
                assert [(d.id, d.title, d.body) for d in docs] == [(i, t, b) for i, _, t, b in rows]
                for doc in reversed(docs):
                    assert list(load_corpus(p, IngestConfig(format=fmt), positions=[doc.position])) == [doc]

    def test_a_positioned_read_in_a_lone_cr_file_reads_about_one_chunk(self, tmp_path):
        # a binary file splits only at \n, so a read used to run on to the end of the file
        p = tmp_path / "c.jsonl"
        p.write_bytes(b"".join(json.dumps(make_record(i, "2020-01-01")).encode() + b"\r" for i in range(5_000)))
        docs = list(load_corpus(p))
        assert p.stat().st_size > 4 * corpus._CHUNK
        with p.open("rb") as fh:
            assert corpus._record_at(fh, False, docs[10].position)["id"] == "d10"
            assert fh.tell() - docs[10].position <= corpus._CHUNK


POSITIONS_CORPUS = {
    "jsonl": (
        json.dumps({"id": "a", "date": "2020-01-01", "title": "t", "body": "b"}) + "\n\n"
        + json.dumps({"id": "b", "date": "2020-01-02", "title": "t", "body": "c"}) + "\n"
    ).encode(),
    "csv": (
        "id,date,title,body\r\n"
        'a,2020-01-01,T,"first\r\nsecond, more\r\nthird"\r\n'
        "\r\n"
        "b,2020-01-02,T,B\r\n"
    ).encode(),
}


# (format, the bytes the position is found at, how far into them, what the read there reports)
@pytest.mark.parametrize(
    "fmt, at, offset, reason",
    [
        ("jsonl", b"\n\n", 1, "no record starts here"),  # a blank line
        ("jsonl", b"\n\n", 0, "no record starts here"),  # the end of a record's line
        ("jsonl", b'"date": "2020-01-02"', 0, "invalid JSON"),  # the middle of a line
        ("jsonl", b"", None, "no record starts here"),  # the end of the file
        ("csv", b"\r\n\r\nb", 2, "no record starts here"),  # a blank line
        ("csv", b"id,date", 0, "unparseable date 'date'"),  # the header is read as a record
        ("csv", b"second, more", 0, "expected 4 cells, got 2"),  # inside a quoted cell
        ("csv", b"\r\nsecond", 0, "no record starts here"),  # a line end inside a quoted cell
        ("csv", b'third"', 0, "expected 4 cells, got 1"),  # a quoted cell's last line
        ("csv", b"2020-01-02,T,B", 0, "expected 4 cells, got 3"),  # the middle of a line
        ("csv", b"", None, "no record starts here"),  # the end of the file
    ],
)
def test_a_position_where_no_record_starts_reports_what_is_read_there(tmp_path, fmt, at, offset, reason):
    data = POSITIONS_CORPUS[fmt]
    p = tmp_path / f"c.{fmt}"
    p.write_bytes(data)
    docs = list(load_corpus(p, IngestConfig(format=fmt)))
    assert [d.id for d in docs] == ["a", "b"]
    position = len(data) if offset is None else data.index(at) + offset
    report = IngestReport()
    # the records around it still read back at their own positions
    positions = [docs[1].position, position, docs[0].position]
    assert list(load_corpus(p, IngestConfig(format=fmt), report, positions=positions)) == [docs[1], docs[0]]
    assert (report.records, report.loaded, report.rejects) == (3, 2, [(position, reason)])


def assign(docs, start, end):
    """The run's grid for [start, end), the documents bucketed into it and
    the number excluded."""
    starts = build_windows(start, end)
    return (starts, *assign_windows(docs, starts, end))


class TestWindows:
    def test_doc_on_start_lands_in_window_zero(self):
        start = date(2020, 1, 6)
        doc = Document("a", start, "", "")
        _, by_window, _ = assign([doc], start, start + timedelta(days=14))
        assert by_window[0] == [doc]

    def test_doc_on_start_plus_seven_lands_in_window_one(self):
        start = date(2020, 1, 6)
        doc = Document("a", start + timedelta(days=7), "", "")
        _, by_window, _ = assign([doc], start, start + timedelta(days=14))
        assert by_window[1] == [doc]
        assert by_window[0] == []

    def test_uniform_28_days_gives_four_equal_windows(self):
        start = date(2020, 3, 2)
        # 25 documents per 7-day block, dates cycling within each block
        docs = [
            Document(f"d{i}", start + timedelta(days=(i % 4) * 7 + (i // 4) % 7), "", "")
            for i in range(100)
        ]
        starts, by_window, _ = assign(docs, start, start + timedelta(days=28))
        assert len(starts) == 4
        # oracle: brute-force date arithmetic per document
        expected = {i: 0 for i in range(4)}
        for d in docs:
            expected[(d.published_at - start).days // 7] += 1
        assert {i: len(v) for i, v in enumerate(by_window)} == expected == {0: 25, 1: 25, 2: 25, 3: 25}

    def test_out_of_range_counted(self):
        start = date(2020, 1, 6)
        docs = [
            Document("early", start - timedelta(days=1), "", ""),
            Document("late", start + timedelta(days=14), "", ""),
            Document("in", start + timedelta(days=3), "", ""),
        ]
        _, by_window, excluded = assign(docs, start, start + timedelta(days=14))
        assert excluded == 2
        assert sum(map(len, by_window)) == 1

    def test_doc_in_the_overhang_of_the_last_window_excluded(self):
        # the last window runs past `end`; documents dated there stay out
        start = date(2020, 1, 6)
        docs = [Document("in", start + timedelta(days=9), "", ""),
                Document("overhang", start + timedelta(days=12), "", "")]
        starts, by_window, excluded = assign(docs, start, start + timedelta(days=10))
        assert starts[-1] + timedelta(days=7) == start + timedelta(days=14)
        assert by_window == [[], [docs[0]]]
        assert excluded == 1

    def test_start_after_end_fatal(self):
        with pytest.raises(CorpusError):
            build_windows(date(2020, 1, 6), date(2020, 1, 6))

    def test_windows_are_consecutive_7_day_blocks(self):
        start, end = date(2020, 1, 6), date(2020, 3, 1)
        starts = build_windows(start, end)
        assert starts[0] == start
        for prev, nxt in zip(starts, starts[1:]):
            assert (nxt - prev).days == 7
        # the last window is the first to reach `end`
        assert starts[-1] < end <= starts[-1] + timedelta(days=7)

    def test_an_end_outside_the_grid_is_refused(self):
        # windows start 2021-01-04 and 2021-01-11, so the grid's last day is 2021-01-17
        starts = build_windows(date(2021, 1, 4), date(2021, 1, 18))
        doc = Document("a", date(2021, 1, 20), "", "")
        for end in (date(2021, 1, 25), date(2021, 1, 19), starts[0]):
            with pytest.raises(CorpusError) as err:
                assign_windows([doc], starts, end)
            assert str(err.value) == (
                f"end {end} is outside the window grid: it must come after the grid's first day "
                "2021-01-04 and at most one day after its last day 2021-01-17"
            )
        assert assign_windows([doc], starts, date(2021, 1, 18)) == ([[], []], 1)

    def test_a_sliced_grid_buckets_by_position(self):
        # a window's index is its position in the grid it is given
        starts = build_windows(date(2021, 1, 4), date(2021, 6, 28))[6:]
        assert starts[0] == date(2021, 2, 15)
        docs = [Document(f"d{i}", starts[0] + timedelta(days=i), "", "") for i in (-1, 0, 6, 7, 20)]
        by_window, excluded = assign_windows(docs, starts, date(2021, 6, 28))
        assert [[d.id for d in v] for v in by_window[:3]] == [["d0", "d6"], ["d7"], ["d20"]]
        assert all(v == [] for v in by_window[3:])
        assert excluded == 1

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
        starts, by_window, excluded = assign(docs, start, end)
        assert sum(map(len, by_window)) + excluded == len(docs)
        for window_start, window_docs in zip(starts, by_window, strict=True):
            for doc in window_docs:
                assert window_start <= doc.published_at < window_start + timedelta(days=7)

    def test_shard_merge_independence(self):
        start = date(2021, 5, 3)
        end = date(2021, 8, 2)
        docs = [
            Document(f"d{i}", start + timedelta(days=(i * 5) % 80), "", "")
            for i in range(200)
        ]
        starts, whole, _ = assign(docs, start, end)
        merged: list[list] = [[] for _ in starts]
        for shard in (docs[:67], docs[67:150], docs[150:]):
            part, _ = assign_windows(shard, starts, end)
            for idx, items in enumerate(part):
                merged[idx].extend(items)
        assert [[d.id for d in v] for v in merged] == [[d.id for d in v] for v in whole]

    def test_determinism(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [make_record(i, f"2020-01-{(i % 28) + 1:02d}") for i in range(50)])
        runs = []
        for _ in range(2):
            docs = list(load_corpus(p))
            _, by_window, _ = assign(docs, date(2020, 1, 1), date(2020, 2, 1))
            runs.append([[d.id for d in v] for v in by_window])
        assert runs[0] == runs[1]
