"""End-to-end orchestration: one config file in, score and table CSVs out.

Stages: registry compilation, corpus ingestion and windowing, per-window
scoring (parallel over windows with a deterministic merge), target
disaggregation, the causality battery, and artifact emission. Output bytes
are a pure function of the corpus and config bytes: worker count and
scheduling never change results.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import partial
from pathlib import Path

import yaml

from . import causality, network, series, textproc
from .corpus import (
    IngestConfig,
    IngestReport,
    WindowAssignment,
    assign_windows,
    build_windows,
    load_corpus,
)
from .keywords import compile_canonical_map, fixture_path, parse_registry
from .network import SbsScore
from .series import WeeklySeries
from .stemming import get_stemmer

__all__ = [
    "RunConfig",
    "ConfigError",
    "PipelineError",
    "validate_config",
    "run_pipeline",
    "score_window",
    "SCORES_CSV",
    "WEEKLY_CSV",
    "GRANGER_CSV",
    "QUESTIONS_CSV",
    "PLOT_CSV",
    "MANIFEST_JSON",
]

SCORES_CSV = "sbs_scores.csv"
WEEKLY_CSV = "weekly_targets.csv"
GRANGER_CSV = "granger_tests.csv"
QUESTIONS_CSV = "granger_questions_wide.csv"
PLOT_CSV = "plot_data.csv"
MANIFEST_JSON = "manifest.json"

# weekly targets come from a smooth interpolant; flagged on every report
CAVEAT = (
    "weekly target values are spline-interpolated from monthly data and are "
    "serially smooth by construction; Granger tests run on levels"
)


class ConfigError(ValueError):
    """All validation failures of a run config, reported together."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {f}" for f in failures))


class PipelineError(RuntimeError):
    """A pipeline stage failed after validation."""


@dataclass
class RunConfig:
    corpus_path: Path
    registry_path: Path
    stopwords_path: Path
    monthly_path: Path
    output_dir: Path
    ingest: IngestConfig
    include_title: bool = True
    language: str = "italian"
    window_size: int = 3
    min_edge_weight: int = 1
    min_token_len: int = 2
    start_date: date = date(2017, 1, 2)
    end_date: date = date(2020, 8, 31)
    climate_targets: list[str] = field(default_factory=list)
    question_targets: list[str] = field(default_factory=list)
    p_max: int = 8
    workers: int = 1
    config_bytes: bytes = b""


def _as_date(value, failures: list[str], name: str) -> date | None:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value))
    except (TypeError, ValueError):
        failures.append(f"{name}: expected YYYY-MM-DD date, got {value!r}")
        return None


# keys validate_config reads; every other key is refused
_TOP_KEYS = frozenset({
    "corpus", "registry", "stopwords", "language", "window_size", "min_edge_weight",
    "min_token_len", "start_date", "end_date", "monthly_targets", "climate_targets",
    "question_targets", "p_max", "output_dir", "workers",
})
_CORPUS_KEYS = frozenset({"path", "format", "fields", "date_format", "include_title"})
_FIELD_KEYS = frozenset({"id", "date", "title", "body", "source"})


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
        data = yaml.safe_load(raw_bytes) or {}
    except yaml.YAMLError as exc:
        raise ConfigError([f"config does not parse as YAML: {exc}"]) from None
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
    fmt = str(corpus.get("format", "jsonl"))
    if fmt not in ("jsonl", "csv"):
        failures.append(f"corpus.format: must be 'jsonl' or 'csv', got {fmt!r}")
    fields = value(corpus, "fields", {}, _is_str_mapping, "a mapping of strings", "corpus.")
    unknown_keys(fields, _FIELD_KEYS, "corpus.fields.")
    ingest = IngestConfig(
        format=fmt if fmt in ("jsonl", "csv") else "jsonl",
        id_field=fields.get("id", "id"),
        date_field=fields.get("date", "date"),
        title_field=fields.get("title", "title"),
        body_field=fields.get("body", "body"),
        source_field=fields.get("source", "source"),
        date_format=value(corpus, "date_format", "%Y-%m-%d", _is_str, "a string", "corpus."),
    )
    include_title = value(
        corpus, "include_title", True, lambda v: isinstance(v, bool), "true or false", "corpus."
    )

    language = value(data, "language", "italian", _is_str, "a string").lower()
    if language not in ("italian", "english", "none"):
        failures.append(f"language: must be 'italian', 'english' or 'none', got {language!r}")

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


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line; blank lines and '#' comments ignored."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


# ---------------------------------------------------------------------------
# Per-window scoring, parallel over windows.
# ---------------------------------------------------------------------------


def score_window(
    texts: list[str],
    window_index: int,
    text_cfg: textproc.TextConfig,
    keywords: list[str],
    *,
    min_edge_weight: int,
) -> list[SbsScore]:
    """Score ``keywords`` on the texts of one window's documents.

    A pure function of its arguments, so windows can be scored in any
    process and order.
    """
    sequences = [textproc.normalize_document(text, text_cfg) for text in texts]
    prev = network.prevalence(sequences)
    records = textproc.merge_cooccurrences(
        textproc.sequence_cooccurrences(seq, text_cfg.window_size) for seq in sequences
    )
    graph = network.build_graph(
        records,
        min_edge_weight=min_edge_weight,
        extra_nodes=prev.keys(),
        window_index=window_index,
    )
    return network.sbs(graph, prev, keywords)


def _score_windows(
    assignment: WindowAssignment,
    text_cfg: textproc.TextConfig,
    keywords: list[str],
    cfg: RunConfig,
    workers: int,
) -> dict[int, list[SbsScore]]:
    indices = [w.index for w in assignment.windows]
    texts = [[d.text(cfg.include_title) for d in assignment.by_window[idx]] for idx in indices]
    score = partial(
        score_window,
        text_cfg=text_cfg,
        keywords=keywords,
        min_edge_weight=cfg.min_edge_weight,
    )
    if workers <= 1:
        results = list(map(score, texts, indices))
    else:
        # map returns results in window order regardless of scheduling
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(score, texts, indices))
    return dict(zip(indices, results))


# ---------------------------------------------------------------------------
# Artifact writers. Score z-columns keep full round-trip precision so the
# sbs = z_p + z_d + z_c identity survives serialization; table statistics
# use 6 significant digits.
# ---------------------------------------------------------------------------


def _fmt6(x: float) -> str:
    return format(float(x), ".6g")


@contextmanager
def _replacing(path: Path):
    """Write to ``<path>.tmp`` and move it onto ``path`` only once complete,
    so a reader never sees a half-written artifact."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, rows, caveat: bool = False) -> Path:
    """Write ``rows`` (header first, cells preformatted) as one CSV artifact."""
    with _replacing(path) as fh:
        if caveat:
            fh.write(f"# caveat: {CAVEAT}\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


# the score dump's numeric columns, in SbsScore field order
_SCORE_COLUMNS = (
    "prevalence_raw", "diversity_raw", "connectivity_raw",
    "z_prevalence", "z_diversity", "z_connectivity", "sbs",
)


def _scores_rows(starts: dict[int, str], scores_by_window: dict[int, list[SbsScore]]):
    yield ["window_index", "week_start", "keyword", *_SCORE_COLUMNS]
    for idx in sorted(scores_by_window):
        for s in sorted(scores_by_window[idx], key=lambda s: s.keyword):
            raw = [getattr(s, c) for c in _SCORE_COLUMNS]
            yield [idx, starts[idx], s.keyword, format(raw[0], "g"), *map(repr, raw[1:])]


def _weekly_rows(starts: dict[int, str], weekly: list[WeeklySeries]):
    yield ["series", "window_index", "week_start", "value"]
    for s in weekly:
        for idx, value in zip(s.indices, s.values):
            yield [s.name, idx, starts[idx], repr(value)]


def _granger_rows(results):
    yield ["keyword", "target", "lags", "f_stat", "p_value", "stars", "cc_sign", "status"]
    for r in results:
        f_stat, p_value = ("" if v is None else _fmt6(v) for v in (r.f_stat, r.p_value))
        status = r.status.replace(",", ";").replace("\n", " ")
        # csv.writer writes a None lag count as an empty cell
        yield [r.keyword, r.target, r.lags, f_stat, p_value, r.stars, r.cc_sign, status]


def _questions_rows(results, questions: list[str]):
    by_pair = {(r.keyword, r.target): r for r in results}
    # an empty trailing cell keeps the header "keyword," when no questions are set
    yield ["keyword", *(questions or [""])]
    for kw in sorted({r.keyword for r in results}):
        cells = []
        for q in questions:
            r = by_pair.get((kw, q))
            cells.append("NA" if r is None or r.f_stat is None else f"{_fmt6(r.f_stat)}{r.stars}")
        yield [kw, *cells]


def _plot_rows(starts: dict[int, str], sbs_series, targets):
    cols = [(f"sbs:{s.name}", dict(zip(s.indices, s.values))) for s in sbs_series]
    cols += [(f"target:{t.name}", dict(zip(t.indices, t.values))) for t in targets]
    grid = sorted(set.intersection(*(set(c[1]) for c in cols))) if cols else []
    yield ["window_index", "week_start", *(name for name, _ in cols)]
    for idx in grid:
        yield [idx, starts[idx], *(repr(values[idx]) for _, values in cols)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Pipeline driver.
# ---------------------------------------------------------------------------


class _StageClock:
    def __init__(self) -> None:
        self.timings: list[dict] = []
        self.current: str | None = None
        self._t0 = 0.0

    def start(self, name: str) -> None:
        self.current = name
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.timings.append(
            {"stage": self.current, "seconds": round(time.perf_counter() - self._t0, 6)}
        )
        self.current = None


def _keyword_series(
    scores_by_window: dict[int, list[SbsScore]], keywords: list[str]
) -> list[WeeklySeries]:
    per_kw: dict[str, dict[int, float]] = {kw: {} for kw in keywords}
    for idx, scores in scores_by_window.items():
        for s in scores:
            per_kw[s.keyword][idx] = s.sbs
    out = []
    for kw in sorted(per_kw):
        vals = per_kw[kw]
        indices = tuple(sorted(vals))
        out.append(WeeklySeries(name=kw, indices=indices, values=tuple(vals[i] for i in indices)))
    return out


def run_pipeline(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    workers: int | None = None,
    stage_mode: str = "run",
) -> dict:
    """Execute the pipeline and return the manifest (also written to disk).

    ``stage_mode`` "score" stops after the score dump; "test" re-runs the
    econometrics from a previously written score dump; "run" does both.
    """
    if stage_mode not in ("run", "score", "test"):
        raise ValueError(f"unknown stage_mode {stage_mode!r}")
    out = Path(out_dir) if out_dir is not None else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    workers = cfg.workers if workers is None else workers
    clock = _StageClock()
    manifest: dict = {
        "config_sha256": hashlib.sha256(cfg.config_bytes).hexdigest(),
        "mode": stage_mode,
        "status": "ok",
        "failed_stage": None,
        "caveats": [CAVEAT],
        "corpus": {},
        "stages": [],
        "artifacts": [],
    }
    artifacts: list[Path] = []
    try:
        clock.start("registry")
        stopwords = load_stopwords(cfg.stopwords_path)
        stemmer = get_stemmer(cfg.language)
        sets = parse_registry(cfg.registry_path)
        canonical = compile_canonical_map(sets, stemmer, stopwords)
        keywords = sorted(s.label for s in sets)
        text_cfg = textproc.TextConfig(
            stemmer=stemmer,
            stopwords=stopwords,
            canonical=canonical,
            window_size=cfg.window_size,
            min_token_len=cfg.min_token_len,
        )
        clock.stop()

        windows = build_windows(cfg.start_date, cfg.end_date)
        starts = {w.index: w.start_date.isoformat() for w in windows}
        if stage_mode in ("run", "score"):
            clock.start("ingest")
            report = IngestReport()
            docs = list(load_corpus(cfg.corpus_path, cfg.ingest, report))
            assignment = assign_windows(docs, cfg.start_date, cfg.end_date)
            manifest["corpus"] = {
                "records": report.records,
                "loaded": report.loaded,
                "rejected": len(report.rejects),
                "excluded_out_of_range": assignment.excluded,
                "assigned": assignment.assigned,
                "windows": len(windows),
            }
            clock.stop()

            clock.start("scores")
            if assignment.assigned == 0:
                first, last = windows[0], windows[-1]
                raise PipelineError(
                    "no documents fell into any analysis window "
                    f"{first.index}..{last.index} "
                    f"({first.start_date.isoformat()}..{last.end_date.isoformat()})"
                )
            scores_by_window = _score_windows(assignment, text_cfg, keywords, cfg, workers)
            clock.stop()

            clock.start("write_scores")
            artifacts.append(_write_csv(out / SCORES_CSV, _scores_rows(starts, scores_by_window)))
            clock.stop()
        else:
            clock.start("read_scores")
            scores_path = out / SCORES_CSV
            if not scores_path.is_file():
                raise PipelineError(
                    f"stage 'test' needs a previous score dump at {scores_path}"
                )
            scores_by_window = _read_scores_csv(scores_path)
            clock.stop()

        if stage_mode in ("run", "test"):
            clock.start("targets")
            monthly = series.load_monthly(cfg.monthly_path)
            climate_names = cfg.climate_targets or [m.name for m in monthly]
            climate_set, question_set = set(climate_names), set(cfg.question_targets)
            available = {m.name for m in monthly}
            missing = [t for t in climate_names + cfg.question_targets if t not in available]
            if missing:
                raise PipelineError(
                    f"monthly target file lacks configured series: {missing}"
                )
            wanted = climate_set | question_set
            weekly = [series.disaggregate(m, windows) for m in monthly if m.name in wanted]
            weekly_by_name = {w.name: w for w in weekly}
            artifacts.append(_write_csv(out / WEEKLY_CSV, _weekly_rows(starts, weekly)))
            clock.stop()

            clock.start("causality")
            keywords = sorted({s.keyword for scores in scores_by_window.values() for s in scores})
            sbs_series = _keyword_series(scores_by_window, keywords)
            climate = [weekly_by_name[n] for n in climate_names]
            questions = [weekly_by_name[n] for n in cfg.question_targets]
            results = causality.run_battery(sbs_series, climate + questions, p_max=cfg.p_max)
            main_rows = [r for r in results if r.target in climate_set]
            question_rows = [r for r in results if r.target in question_set]
            clock.stop()

            clock.start("write_tables")
            artifacts.append(_write_csv(out / GRANGER_CSV, _granger_rows(main_rows), caveat=True))
            question_table = _questions_rows(question_rows, cfg.question_targets)
            artifacts.append(_write_csv(out / QUESTIONS_CSV, question_table, caveat=True))
            plot_table = _plot_rows(starts, sbs_series, climate + questions)
            artifacts.append(_write_csv(out / PLOT_CSV, plot_table))
            clock.stop()
    except Exception:
        if clock.current is not None:
            manifest["failed_stage"] = clock.current
            clock.stop()
        manifest["status"] = "failed"
        _write_manifest(out, manifest, clock.timings, artifacts)
        raise
    _write_manifest(out, manifest, clock.timings, artifacts)
    return manifest


def _write_manifest(out: Path, manifest: dict, stages: list[dict], artifacts: list[Path]) -> None:
    """Complete the manifest with stage timings and artifact hashes and write it."""
    manifest["stages"] = stages
    manifest["artifacts"] = [{"path": p.name, "sha256": _sha256(p)} for p in artifacts]
    with _replacing(out / MANIFEST_JSON) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _read_scores_csv(path: Path) -> dict[int, list[SbsScore]]:
    """Parse a score dump back into per-window score lists."""
    scores: dict[int, list[SbsScore]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            idx = int(row["window_index"])
            values = {c: float(row[c]) for c in _SCORE_COLUMNS}
            scores.setdefault(idx, []).append(SbsScore(keyword=row["keyword"], window=idx, **values))
    return scores
