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
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

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

    format: str = "jsonl"  # one of _FORMATS
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
_FORMATS = ("jsonl", "csv")  # the corpus formats load_corpus reads


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


# the most a read takes at once: a file whose lines end in a lone \r has no
# \n for readline to stop at
_CHUNK = 1 << 16


def _byte_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The lines of ``fh`` from its current position, each with its end
    (\\n, \\r or \\r\\n), read at most ``_CHUNK`` bytes at a time."""
    # the pieces read of a line whose end is not yet known: it has none yet,
    # or it ends in a \r that a \n may follow in the next read
    line: list[bytes] = []
    while chunk := fh.readline(_CHUNK):
        for piece in chunk.splitlines(keepends=True):
            if line and line[-1].endswith(b"\r") and piece != b"\n":
                yield b"".join(line)
                line = []
            line.append(piece)
            if piece.endswith(b"\n"):
                yield b"".join(line)
                line = []
    if line:
        yield b"".join(line)


def _lines(fh: BinaryIO, at: list[int]) -> Iterator[str]:
    """The text lines of ``fh`` from its current position, split where a
    text-mode file splits them (at \\n, \\r and \\r\\n). ``at[0]`` starts at
    that position and moves past each line as the line is yielded;
    ``at[1]`` counts the lines that are not UTF-8 text, which are yielded
    with U+FFFD where a byte does not decode."""
    for line in _byte_lines(fh):
        at[0] += len(line)
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            at[1] += 1
            text = line.decode("utf-8", "replace")
        yield text


def _check_header(header: list[str], cfg: IngestConfig, path: Path) -> None:
    columns = [(key, getattr(cfg, attr)) for key, attr in _COLUMNS]
    missing = [(key, name) for key, name in columns if name not in header]
    if missing:
        raise CorpusError(
            f"CSV corpus {path}: the header {header} lacks the column(s) "
            f"{', '.join(repr(name) for _, name in missing)}; name the file's columns in "
            f"{', '.join(f'corpus.fields.{key}' for key, _ in missing)}, or add them "
            "(a corpus without titles needs an empty title column)"
        )
    repeated = [(key, name) for key, name in columns if header.count(name) > 1]
    if repeated:
        raise CorpusError(
            f"CSV corpus {path}: the header {header} names the column(s) "
            f"{', '.join(f'{name!r} (corpus.fields.{key})' for key, name in repeated)} "
            "more than once, so which cell a record is read from is ambiguous; "
            "give each column its own name"
        )


_NO_RECORD = "no record starts here"


def _records(fh: BinaryIO, is_csv: bool) -> Iterator[tuple[int, int, dict | list[str] | str | csv.Error]]:
    """``(line, position, frame or why it is rejected)`` for each record
    from ``fh``'s current position, in file order: a JSON Lines object, or
    a CSV row's cells when ``is_csv``. ``line`` counts the lines read, from
    1; blank lines hold no record. A CSV row that ``csv`` cannot read, as
    one with a cell over its size limit, comes as the ``csv.Error`` and
    ends the reading, since where the next row starts is then unknown."""
    at = [fh.tell(), 0]
    end, last_line, not_utf8 = at[0], 0, 0
    frames = csv.reader(_lines(fh, at)) if is_csv else _lines(fh, at)
    try:
        for frame in frames:
            # a quoted CSV field may span lines: a record starts on the line
            # after the previous record's last one
            start, end = end, at[0]
            line_no = last_line + 1
            last_line = frames.line_num if is_csv else line_no
            if not (frame if is_csv else frame.strip()):
                continue  # a blank line
            if at[1] > not_utf8:
                not_utf8, raw = at[1], "not UTF-8 text"
            elif is_csv:
                raw = frame
            else:
                try:
                    raw = json.loads(frame)
                except json.JSONDecodeError:
                    raw = "invalid JSON"
                # valid JSON that Python cannot build, in a field read or not
                except ValueError:
                    raw = f"a number longer than Python's limit of {sys.get_int_max_str_digits():,} digits"
                except RecursionError:
                    raw = "nested past Python's recursion limit"
                else:
                    raw = raw if isinstance(raw, dict) else "record is not an object"
            yield line_no, start, raw
    except csv.Error as exc:
        yield last_line + 1, end, exc


def _record_at(fh: BinaryIO, is_csv: bool, position: int) -> dict | list[str] | str | csv.Error:
    """The record that starts at byte ``position``, or why there is none."""
    fh.seek(position)
    _, start, raw = next(_records(fh, is_csv), (0, None, _NO_RECORD))
    return raw if start == position else _NO_RECORD


def _unreadable(path: Path, row: str, why: str | csv.Error) -> CorpusError:
    """The refusal of a CSV header or record that is not UTF-8 text or that
    ``csv`` cannot read."""
    message = f"CSV corpus {path}: {row} cannot be read: {why}"
    if isinstance(why, csv.Error):
        message += (
            f"; a CSV cell holds at most {csv.field_size_limit():,} characters, and JSON Lines has no such limit"
        )
    return CorpusError(message)


def not_utf8(path: Path, error: Callable[[str], Exception], what: str) -> Exception:
    """``error`` saying that ``what``, the file at ``path``, is not UTF-8
    text, with the line of its first byte that is not."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        what += f", line {len((raw[:exc.start] + b'.').splitlines())}"
    return error(f"{what}: not UTF-8 text")


def csv_rows(path: Path, error: Callable[[str], Exception], what: str) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` for each row of the UTF-8 CSV table at ``path``, at
    the line where the row starts. A byte that is not UTF-8 raises
    ``not_utf8``'s refusal, and a row that ``csv`` cannot read, as one with
    a cell over its size limit, ``error`` naming ``what`` and that line."""
    # utf-8-sig drops the byte-order mark some editors write at the start
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader, line = csv.reader(fh), 1
        try:
            for cells in reader:
                yield line, cells
                # a quoted cell may span lines: the next row starts after this one's last
                line = reader.line_num + 1
        except UnicodeDecodeError:
            raise not_utf8(path, error, what) from None
        except csv.Error as exc:
            raise error(f"{what}, line {line}: {exc}") from None


def load_corpus(
    path: str | Path,
    cfg: IngestConfig | None = None,
    report: IngestReport | None = None,
    *,
    positions: Iterable[int] | None = None,
) -> Iterator[Document]:
    """Stream documents in file order; malformed records go to the report.

    Records that are not UTF-8 text, miss an id or date, carry a duplicate
    id, or hold an id that is neither a string nor a finite number or a
    title or body that is not a string, JSON Lines records that are not a
    JSON object or that Python cannot build (an integer over its digit
    limit, nesting past its recursion limit), and CSV records whose cell
    count differs from the header's, are rejected individually with the
    line on which they start. The CSV header is the first line that is not blank.
    An unreadable file, a CSV header that is not UTF-8 text, lacks a
    configured column or names one twice, and a CSV header or record that
    ``csv`` cannot read, as one with a cell over its size limit, are fatal.
    Each document carries the byte position at which its record starts.
    Given ``positions``, the same reader starts at each of them in turn and
    only a record that starts there is read: a reject is then located by
    its byte position, and a position at which no record starts is rejected.
    """
    cfg = cfg or IngestConfig()
    report = report if report is not None else IngestReport()
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    if cfg.format not in _FORMATS:
        raise CorpusError(f"unknown corpus format {cfg.format!r}")
    seen: set[str] = set()
    dates: dict[str, date | None] = {}
    with path.open("rb") as fh:
        # the byte-order mark some editors write at the start is not text
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        is_csv, header = cfg.format == "csv", None
        found = _records(fh, is_csv)
        if is_csv:
            line, _, header = next(found, (1, None, []))
            if not isinstance(header, list):
                raise _unreadable(path, f"the header at line {line}", header)
            _check_header(header, cfg, path)
        if positions is not None:
            found = ((position, position, _record_at(fh, is_csv, position)) for position in positions)
        for where, position, raw in found:
            if isinstance(raw, csv.Error):
                raise _unreadable(path, f"the record at {'line' if positions is None else 'byte'} {where}", raw)
            if isinstance(raw, list):
                raw = dict(zip(header, raw)) if len(raw) == len(header) else (
                    f"expected {len(header)} cells, got {len(raw)}"
                )
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
