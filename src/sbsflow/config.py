"""Run-config validation: one YAML file in, a typed ``RunConfig`` out.

Importing this module loads no numpy or scipy, so ``sbsflow validate`` runs
without paying for the numeric stack.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import yaml

from .corpus import _COLUMNS, _FORMATS, IngestConfig, not_utf8
from .keywords import fixture_path
from .stemming import _STEMMERS

__all__ = ["ConfigError", "RunConfig", "validate_config"]


class ConfigError(ValueError):
    """All validation failures of a run config, reported together."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {f}" for f in failures))


@dataclass
class RunConfig:
    """A validated run config; ``validate_config`` owns every default but ``IngestConfig``'s."""

    corpus_path: Path
    registry_path: Path
    stopwords_path: Path
    monthly_path: Path
    output_dir: Path
    ingest: IngestConfig
    include_title: bool
    language: str
    window_size: int
    min_edge_weight: int
    min_token_len: int
    start_date: date
    end_date: date
    climate_targets: list[str]
    question_targets: list[str]
    p_max: int
    workers: int
    config_bytes: bytes


class _DatesAsText(yaml.SafeLoader):
    """A safe loader that leaves a date as the text it is written as, since
    YAML builds dates while it loads and so refuses ``2021-13-04`` without
    naming its key; ``_as_date`` parses it instead."""


_DatesAsText.add_constructor("tag:yaml.org,2002:timestamp", _DatesAsText.construct_yaml_str)


# date.fromisoformat alone also reads 20210104 and 2021-W01-1 from Python 3.11 on
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _as_date(value, failures: list[str], name: str) -> date | None:
    if isinstance(value, str) and _DATE.fullmatch(value):
        try:
            return date.fromisoformat(value)
        except ValueError:  # a month or day out of range
            pass
    failures.append(f"{name}: expected YYYY-MM-DD date, got {value!r}")
    return None


# keys validate_config reads; every other key is refused
_TOP_KEYS = frozenset({
    "corpus", "registry", "stopwords", "language", "window_size", "min_edge_weight",
    "min_token_len", "start_date", "end_date", "monthly_targets", "climate_targets",
    "question_targets", "p_max", "output_dir", "workers",
})
_CORPUS_KEYS = frozenset({"path", "format", "fields", "date_format", "include_title"})
_FIELD_KEYS = frozenset(key for key, _ in _COLUMNS)


def _one_of(names) -> str:
    *rest, last = map(repr, names)
    return f"{', '.join(rest)} or {last}"


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(t, str) for t in v)


def _is_str_mapping(v) -> bool:
    return isinstance(v, dict) and all(isinstance(t, str) for t in v.values())


def _is_file(p: Path) -> bool:
    try:
        return p.is_file()
    except OSError:  # e.g. a name too long for the file system
        return False


def validate_config(path: str | Path) -> RunConfig:
    """Resolve and validate a YAML run config, reporting every failure at once."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    raw_bytes = path.read_bytes()
    try:
        # YAML's byte reader alone would also read UTF-16
        raw_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path, lambda message: ConfigError([message]), f"config {path}") from None
    try:
        data = yaml.load(raw_bytes, Loader=_DatesAsText) or {}
    except yaml.YAMLError as exc:
        raise ConfigError([f"config does not parse as YAML: {exc}"]) from None
    except (ValueError, RecursionError) as exc:
        # YAML that Python cannot build, as an integer over its digit limit
        raise ConfigError([f"config holds a value Python cannot build: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a mapping"])
    base = path.parent
    failures: list[str] = []

    def unknown_keys(section: dict, known: frozenset[str], prefix: str = "") -> None:
        failures.extend(f"{prefix}{key}: unknown key" for key in section if key not in known)

    def value(section: dict, key: str, default, ok, expected: str, prefix: str = ""):
        # an absent key takes the default; a present one must pass ``ok``
        if key not in section:
            return default
        v = section[key]
        if ok(v):
            return v
        failures.append(f"{prefix}{key}: expected {expected}, got {v!r}")
        return default

    def resolve(p: str) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    def required_file(section: dict, key: str, prefix: str = "") -> Path:
        p = value(section, key, None, _is_str, "a string", prefix)
        if p is None:
            if key not in section:
                failures.append(f"{prefix}{key}: required")
            return base / "missing"
        p = resolve(p)
        if not _is_file(p):
            failures.append(f"{prefix}{key}: file not found: {p}")
        return p

    unknown_keys(data, _TOP_KEYS)
    corpus = data.get("corpus") or {}
    if not isinstance(corpus, dict):
        failures.append(f"corpus: must be a mapping, got {corpus!r}")
        corpus = {}
    unknown_keys(corpus, _CORPUS_KEYS, "corpus.")
    corpus_path = required_file(corpus, "path", "corpus.")
    fmt = str(corpus.get("format", IngestConfig.format))
    if fmt not in _FORMATS:
        failures.append(f"corpus.format: must be {_one_of(_FORMATS)}, got {fmt!r}")
    fields = value(corpus, "fields", {}, _is_str_mapping, "a mapping of strings", "corpus.")
    unknown_keys(fields, _FIELD_KEYS, "corpus.fields.")
    ingest = IngestConfig(
        format=fmt,
        date_format=value(corpus, "date_format", IngestConfig.date_format, _is_str, "a string", "corpus."),
        **{attr: fields[key] for key, attr in _COLUMNS if key in fields},
    )
    include_title = value(
        corpus, "include_title", True, lambda v: isinstance(v, bool), "true or false", "corpus."
    )

    language = value(data, "language", "italian", _is_str, "a string").lower()
    if language not in _STEMMERS:
        failures.append(f"language: must be {_one_of(_STEMMERS)}, got {language!r}")

    registry_path = required_file(data, "registry")

    packaged = "stopwords_it.txt" if language == "italian" else "stopwords_en.txt"
    stopwords = value(data, "stopwords", None, _is_str, "a string")
    stopwords_path = fixture_path(packaged) if stopwords is None else resolve(stopwords)
    if not _is_file(stopwords_path):
        failures.append(f"stopwords: file not found: {stopwords_path}")

    monthly_path = required_file(data, "monthly_targets")

    def integer(name: str, default: int, minimum: int) -> int:
        # YAML booleans are ints in Python; a config that says `true` is a typo
        return value(
            data, name, default,
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
            f"an integer >= {minimum}",
        )

    window_size = integer("window_size", 3, 2)
    min_edge_weight = integer("min_edge_weight", 1, 1)
    min_token_len = integer("min_token_len", 2, 1)
    p_max = integer("p_max", 8, 1)
    workers = integer("workers", 1, 1)

    start = _as_date(data.get("start_date"), failures, "start_date")
    end = _as_date(data.get("end_date"), failures, "end_date")
    if start is not None and end is not None and start >= end:
        failures.append(f"start_date: {start} must precede end_date {end}")

    climate = value(data, "climate_targets", [], _is_str_list, "a list of strings")
    questions = value(data, "question_targets", [], _is_str_list, "a list of strings")
    # a repeated name would repeat its battery rows and plot_data.csv columns
    seen: set[str] = set()
    for key, names in (("climate_targets", climate), ("question_targets", questions)):
        for name in names:
            if name in seen:
                failures.append(f"{key}: repeated name {name!r}")
            seen.add(name)
    output_dir = value(data, "output_dir", "out", _is_str, "a string")

    if failures:
        raise ConfigError(failures)
    return RunConfig(
        corpus_path=corpus_path,
        registry_path=registry_path,
        stopwords_path=stopwords_path,
        monthly_path=monthly_path,
        output_dir=resolve(output_dir),
        ingest=ingest,
        include_title=include_title,
        language=language,
        window_size=window_size,
        min_edge_weight=min_edge_weight,
        min_token_len=min_token_len,
        start_date=start,
        end_date=end,
        climate_targets=climate,
        question_targets=questions,
        p_max=p_max,
        workers=workers,
        config_bytes=raw_bytes,
    )
