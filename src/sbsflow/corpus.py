"""Dated-document ingestion and bucketing into consecutive 7-day windows.

Weeks are fixed 7-day blocks anchored at the configured corpus start date
(not ISO calendar weeks), which keeps alignment with the disaggregated
target series unambiguous. Dates are timezone-free calendar dates.

Every loaded document knows the byte position at which its record starts,
so a caller can keep an index of (id, day, position) entries instead of
the texts and read a window's records again when it needs them.
"""
from __future__ import annotations

import codecs
import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

__all__ = [
    "Document",
    "IndexEntry",
    "IngestConfig",
    "IngestReport",
    "CorpusError",
    "load_corpus",
    "build_windows",
    "assign_windows",
]


WEEK = timedelta(days=7)


class CorpusError(ValueError):
    """Fatal ingestion problem (unreadable file, bad configuration)."""


@dataclass(frozen=True)
class Document:
    """One dated news item; title + body is the analysis text."""

    id: str
    published_at: date
    title: str
    body: str
    # the byte offset in the corpus file at which the record starts, set by
    # load_corpus; where a document was read does not make it another one
    position: int | None = field(default=None, compare=False)

    def text(self, include_title: bool = True) -> str:
        if include_title and self.title:
            return f"{self.title}. {self.body}"
        return self.body


class IndexEntry(NamedTuple):
    """What a run keeps of an accepted record until its window is scored."""

    id: str
    published_at: date
    position: int


@dataclass
class IngestConfig:
    """Field mapping and date format for JSON Lines or CSV corpora."""

    format: str = "jsonl"  # "jsonl" or "csv"
    id_field: str = "id"
    date_field: str = "date"
    title_field: str = "title"
    body_field: str = "body"
    date_format: str = "%Y-%m-%d"


@dataclass
class IngestReport:
    """Counts kept while streaming so nothing is dropped without trace."""

    records: int = 0
    loaded: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)


# what a JSON Lines field holds when it is not a string, as JSON names it
_JSON_KINDS = {bool: "a boolean", int: "a number", float: "a number", list: "an array", dict: "an object"}
# each column a record is read from: the corpus.fields key that renames it,
# and the IngestConfig attribute that holds its name
_COLUMNS = (("id", "id_field"), ("date", "date_field"), ("title", "title_field"), ("body", "body_field"))


def _parse_record(
    raw: dict, position: int, cfg: IngestConfig, seen: set[str], dates: dict[str, date | None]
) -> Document | str:
    """The document in a record, or why it is rejected."""
    for name, kinds, wanted in (
        (cfg.id_field, (str, int, float), "a string or a number"),
        (cfg.title_field, str, "a string or null"),
        (cfg.body_field, str, "a string or null"),
    ):
        value = raw.get(name)
        if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
            return f"{name!r} must be {wanted}, got {_JSON_KINDS[type(value)]}"
    raw_id = raw.get(cfg.id_field)
    # json.loads reads NaN, Infinity and an overflowing 1e400 as floats
    if isinstance(raw_id, float) and not math.isfinite(raw_id):
        return f"{cfg.id_field!r} must be a finite number, got {raw_id!r}"
    doc_id = "" if raw_id is None else str(raw_id).strip()
    if not doc_id:
        return f"missing or empty {cfg.id_field!r}"
    if doc_id in seen:
        return f"duplicate id {doc_id!r}"
    raw_date = raw.get(cfg.date_field)
    key = "" if raw_date is None else str(raw_date).strip()
    if not key:
        return f"missing {cfg.date_field!r}"
    # a corpus repeats few distinct dates over many records: parse each once
    if key not in dates:
        try:
            dates[key] = datetime.strptime(key, cfg.date_format).date()
        except ValueError:
            dates[key] = None
    day = dates[key]
    if day is None:
        return f"unparseable date {raw_date!r}"
    seen.add(doc_id)
    return Document(
        id=doc_id,
        published_at=day,
        title=raw.get(cfg.title_field) or "",
        body=raw.get(cfg.body_field) or "",
        position=position,
    )


def _lines(fh: BinaryIO, at: list[int]) -> Iterator[str]:
    """The text lines of ``fh`` from its current position, split where a
    text-mode file splits them (at \\n, \\r and \\r\\n). ``at[0]`` starts at
    that position and moves past each line as the line is yielded."""
    for chunk in fh:
        for line in chunk.splitlines(keepends=True):
            at[0] += len(line)
            yield line.decode("utf-8")


def _json_record(line: str) -> dict | str:
    """The record on a non-blank JSON line, or why it is rejected."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        return "invalid JSON"
    return raw if isinstance(raw, dict) else "record is not an object"


def _csv_record(row: list[str], header: list[str]) -> dict | str:
    """The record in a non-blank CSV row, or why it is rejected."""
    if len(row) != len(header):
        return f"expected {len(header)} cells, got {len(row)}"
    return dict(zip(header, row))


def _check_header(header: list[str], cfg: IngestConfig, path: Path) -> None:
    missing = [(key, getattr(cfg, attr)) for key, attr in _COLUMNS if getattr(cfg, attr) not in header]
    if missing:
        raise CorpusError(
            f"CSV corpus {path}: the header {header} lacks the column(s) "
            f"{', '.join(repr(name) for _, name in missing)}; name the file's columns in "
            f"{', '.join(f'corpus.fields.{key}' for key, _ in missing)}, or add them "
            "(a corpus without titles needs an empty title column)"
        )


_NO_RECORD = "no record starts here"


def _records(
    fh: BinaryIO, cfg: IngestConfig, path: Path, positions: Iterable[int] | None
) -> Iterator[tuple[int, int, dict | str]]:
    """``(where, position, record or why it is rejected)`` for each record of
    ``fh``: every record in file order, located by the line on which it
    starts, or with ``positions`` the records starting at those byte
    positions, located by their position."""
    at = [fh.tell()]
    if cfg.format == "jsonl":
        if positions is None:
            end = at[0]
            for line_no, line in enumerate(_lines(fh, at), start=1):
                start, end = end, at[0]
                if line.strip():
                    yield line_no, start, _json_record(line)
        else:
            for position in positions:
                fh.seek(position)
                line = next(_lines(fh, [position]), "")
                yield position, position, _json_record(line) if line.strip() else _NO_RECORD
        return
    reader = csv.reader(_lines(fh, at))
    header = next(reader, [])
    _check_header(header, cfg, path)
    if positions is None:
        end, last_line = at[0], reader.line_num
        for row in reader:
            # a quoted field may span lines: a record starts on the line
            # after the previous record's last one
            start, end = end, at[0]
            line_no, last_line = last_line + 1, reader.line_num
            if row:  # not a blank line
                yield line_no, start, _csv_record(row, header)
    else:
        for position in positions:
            fh.seek(position)
            row = next(csv.reader(_lines(fh, [position])), [])
            yield position, position, _csv_record(row, header) if row else _NO_RECORD


def load_corpus(
    path: str | Path,
    cfg: IngestConfig | None = None,
    report: IngestReport | None = None,
    *,
    positions: Iterable[int] | None = None,
) -> Iterator[Document]:
    """Stream documents in file order; malformed records go to the report.

    Records missing an id or date, carrying a duplicate id, or holding an
    id that is neither a string nor a finite number or a title or body that
    is not a string, and CSV records whose cell count differs from the
    header's, are rejected individually with the line on which they start;
    an unreadable file, and a CSV header that lacks a configured column,
    are fatal. Each document carries the byte position at which its record
    starts. Given ``positions``, only the records that start there are read,
    in that order: a reject is then located by its byte position, and a
    position at which no record starts is rejected.
    """
    cfg = cfg or IngestConfig()
    report = report if report is not None else IngestReport()
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if cfg.format not in ("jsonl", "csv"):
        raise CorpusError(f"unknown corpus format {cfg.format!r}")
    seen: set[str] = set()
    dates: dict[str, date | None] = {}
    with path.open("rb") as fh:
        # the byte-order mark some editors write at the start is not text
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        for where, position, raw in _records(fh, cfg, path, positions):
            report.records += 1
            doc = raw if isinstance(raw, str) else _parse_record(raw, position, cfg, seen, dates)
            if isinstance(doc, str):
                report.rejects.append((where, doc))
            else:
                report.loaded += 1
                yield doc


def build_windows(start: date, end: date) -> list[date]:
    """The start days of consecutive 7-day windows covering [start, end).

    Window ``i`` is ``[starts[i], starts[i] + 7 days)``: its position in the
    list is its index, and the last window may overhang ``end``.
    """
    if start >= end:
        raise CorpusError(f"start date {start} must precede end date {end}")
    return [start + i * WEEK for i in range(math.ceil((end - start).days / 7))]


def assign_windows(docs, starts: list[date], end: date) -> tuple[list[list], int]:
    """Bucket documents into the windows starting at ``starts``.

    Returns the documents of each window, in the order of ``starts``, and
    the number dated outside [starts[0], end). ``docs`` may be ``Document``s
    or anything else dated by a ``published_at`` day, such as a run's
    ``IndexEntry``s; each window keeps them in input order. ``starts`` is a
    grid of consecutive 7-day windows, ``build_windows(start, end)`` or a
    slice of one, and ``end`` must fall inside it. Every document with
    starts[0] <= published_at < end lands in exactly one window regardless
    of input order, so shards of the corpus can be assigned independently
    and merged.
    """
    first, stop = starts[0], starts[-1] + WEEK
    if not first < end <= stop:
        raise CorpusError(
            f"end {end} is outside the window grid: it must come after the grid's first day "
            f"{first} and at most one day after its last day {stop - timedelta(days=1)}"
        )
    by_window: list[list] = [[] for _ in starts]
    excluded = 0
    for doc in docs:
        if first <= doc.published_at < end:
            by_window[(doc.published_at - first).days // 7].append(doc)
        else:
            excluded += 1
    return by_window, excluded
