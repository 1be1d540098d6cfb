"""Dated-document ingestion and bucketing into consecutive 7-day windows.

Weeks are fixed 7-day blocks anchored at the configured corpus start date
(not ISO calendar weeks), which keeps alignment with the disaggregated
target series unambiguous. Dates are timezone-free calendar dates.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Iterator

__all__ = [
    "Document",
    "TimeWindow",
    "IngestConfig",
    "IngestReport",
    "WindowAssignment",
    "CorpusError",
    "load_corpus",
    "build_windows",
    "assign_windows",
]


class CorpusError(ValueError):
    """Fatal ingestion problem (unreadable file, bad configuration)."""


@dataclass(frozen=True)
class Document:
    """One dated news item; title + body is the analysis text."""

    id: str
    published_at: date
    title: str
    body: str

    def text(self, include_title: bool = True) -> str:
        if include_title and self.title:
            return f"{self.title}. {self.body}"
        return self.body


@dataclass(frozen=True)
class TimeWindow:
    """Half-open 7-day window [start_date, end_date)."""

    index: int
    start_date: date
    end_date: date


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

    def reject(self, line_no: int, reason: str) -> None:
        self.rejects.append((line_no, reason))


# what a JSON Lines field holds when it is not a string, as JSON names it
_JSON_KINDS = {bool: "a boolean", int: "a number", float: "a number", list: "an array", dict: "an object"}


def _parse_record(
    raw: dict, line_no: int, cfg: IngestConfig, seen: set[str], report: IngestReport
) -> Document | None:
    for name, kinds, wanted in (
        (cfg.id_field, (str, int, float), "a string or a number"),
        (cfg.title_field, str, "a string or null"),
        (cfg.body_field, str, "a string or null"),
    ):
        value = raw.get(name)
        if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
            report.reject(line_no, f"{name!r} must be {wanted}, got {_JSON_KINDS[type(value)]}")
            return None
    raw_id = raw.get(cfg.id_field)
    # json.loads reads NaN, Infinity and an overflowing 1e400 as floats
    if isinstance(raw_id, float) and not math.isfinite(raw_id):
        report.reject(line_no, f"{cfg.id_field!r} must be a finite number, got {raw_id!r}")
        return None
    doc_id = "" if raw_id is None else str(raw_id).strip()
    if not doc_id:
        report.reject(line_no, f"missing or empty {cfg.id_field!r}")
        return None
    if doc_id in seen:
        report.reject(line_no, f"duplicate id {doc_id!r}")
        return None
    raw_date = raw.get(cfg.date_field)
    if raw_date is None or str(raw_date).strip() == "":
        report.reject(line_no, f"missing {cfg.date_field!r}")
        return None
    try:
        day = datetime.strptime(str(raw_date).strip(), cfg.date_format).date()
    except ValueError:
        report.reject(line_no, f"unparseable date {raw_date!r}")
        return None
    seen.add(doc_id)
    return Document(
        id=doc_id,
        published_at=day,
        title=raw.get(cfg.title_field) or "",
        body=raw.get(cfg.body_field) or "",
    )


def load_corpus(
    path: str | Path,
    cfg: IngestConfig | None = None,
    report: IngestReport | None = None,
) -> Iterator[Document]:
    """Stream documents in file order; malformed records go to the report.

    Records missing an id or date, carrying a duplicate id, or holding an
    id that is neither a string nor a finite number or a title or body that
    is not a string, and CSV records whose cell count differs from the
    header's, are rejected individually with the line on which they start;
    an unreadable file is fatal.
    """
    cfg = cfg or IngestConfig()
    report = report if report is not None else IngestReport()
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if cfg.format not in ("jsonl", "csv"):
        raise CorpusError(f"unknown corpus format {cfg.format!r}")
    seen: set[str] = set()
    # utf-8-sig drops the byte-order mark some editors write at the start
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        if cfg.format == "jsonl":
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                report.records += 1
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    report.reject(line_no, "invalid JSON")
                    continue
                if not isinstance(raw, dict):
                    report.reject(line_no, "record is not an object")
                    continue
                doc = _parse_record(raw, line_no, cfg, seen, report)
                if doc is not None:
                    report.loaded += 1
                    yield doc
        else:
            reader = csv.reader(fh)
            fields = next(reader, [])
            end = reader.line_num
            for row in reader:
                # a quoted field may span lines: a record starts on the line
                # after the previous record's last one
                start, end = end + 1, reader.line_num
                if not row:  # a blank line
                    continue
                report.records += 1
                if len(row) != len(fields):
                    report.reject(start, f"expected {len(fields)} cells, got {len(row)}")
                    continue
                doc = _parse_record(dict(zip(fields, row)), start, cfg, seen, report)
                if doc is not None:
                    report.loaded += 1
                    yield doc


def build_windows(start: date, end: date) -> list[TimeWindow]:
    """Consecutive 7-day windows covering [start, end); the last may overhang."""
    if start >= end:
        raise CorpusError(f"start date {start} must precede end date {end}")
    windows = []
    index = 0
    cursor = start
    while cursor < end:
        windows.append(TimeWindow(index, cursor, cursor + timedelta(days=7)))
        cursor += timedelta(days=7)
        index += 1
    return windows


@dataclass
class WindowAssignment:
    by_window: dict[int, list[Document]]
    excluded: int

    @property
    def assigned(self) -> int:
        return sum(len(v) for v in self.by_window.values())


def assign_windows(docs, windows: list[TimeWindow], end: date) -> WindowAssignment:
    """Bucket documents into ``windows``; out-of-range documents are counted.

    ``windows`` is the run's grid, ``build_windows(start, end)``. Every
    document with start <= published_at < end lands in exactly one window
    regardless of input order, so shards of the corpus can be assigned
    independently and merged.
    """
    start = windows[0].start_date
    by_window: dict[int, list[Document]] = {w.index: [] for w in windows}
    excluded = 0
    for doc in docs:
        if not (start <= doc.published_at < end):
            excluded += 1
            continue
        idx = (doc.published_at - start).days // 7
        by_window[idx].append(doc)
    return WindowAssignment(by_window=by_window, excluded=excluded)
