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
import math
import os
import platform
import time
import unicodedata
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy
import scipy

from . import causality, series, textproc
from .config import ConfigError, RunConfig, validate_config
from .corpus import (
    IngestReport,
    TimeWindow,
    WindowAssignment,
    assign_windows,
    build_windows,
    load_corpus,
)
from .keywords import compile_canonical_map, parse_registry
from .series import WeeklySeries
from .stemming import get_stemmer

if TYPE_CHECKING:
    from .network import SbsScore

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


class PipelineError(RuntimeError):
    """A pipeline stage failed after validation."""


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line, in NFC form as ``tokenize`` gives it; blank lines
    and '#' comments ignored."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = unicodedata.normalize("NFC", line.strip()).lower()
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

    The scores depend on the arguments alone, so windows can be scored in
    any process and order; the token memo of ``text_cfg.canonical`` only
    saves work, across every call that shares the map.
    """
    from . import network

    sequences = [textproc.normalize_document(text, text_cfg) for text in texts]
    prev = network.prevalence(sequences)
    records = textproc.sequence_cooccurrences(sequences, text_cfg.window_size)
    graph = network.build_graph(
        records,
        min_edge_weight=min_edge_weight,
        extra_nodes=prev.keys(),
        window_index=window_index,
    )
    return network.sbs(graph, prev, keywords)


# a pool worker's scoring function, with the worker's own copy of the
# canonical map and its token memo; set once per process by the pool's initializer
_worker_score = None


def _start_score_worker(score) -> None:
    global _worker_score
    _worker_score = score


def _score_in_worker(texts: list[str], window_index: int) -> list[SbsScore]:
    return _worker_score(texts, window_index)


def _score_windows(
    windows: list[TimeWindow],
    assignment: WindowAssignment,
    text_cfg: textproc.TextConfig,
    keywords: list[str],
    cfg: RunConfig,
    workers: int,
) -> list[list[SbsScore]]:
    """Each window's scores, in window order.

    The canonical map's token memo serves the whole run. With ``workers``
    > 1 the pool hands out one window per task to whichever worker is free,
    and each worker process keeps one copy of the map for all its windows.
    """
    indices = [w.index for w in windows]
    texts = [[d.text(cfg.include_title) for d in assignment.by_window[idx]] for idx in indices]
    score = partial(
        score_window,
        text_cfg=text_cfg,
        keywords=keywords,
        min_edge_weight=cfg.min_edge_weight,
    )
    workers = min(workers, len(windows))
    if workers <= 1:
        return list(map(score, texts, indices))
    # map returns results in window order regardless of scheduling
    with ProcessPoolExecutor(workers, initializer=_start_score_worker, initargs=(score,)) as pool:
        return list(pool.map(_score_in_worker, texts, indices))


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
_SCORES_HEADER = ("window_index", "week_start", "keyword", *_SCORE_COLUMNS)


def _scores_rows(starts: list[str], scores_by_window: list[list[SbsScore]]):
    yield _SCORES_HEADER
    for idx, scores in enumerate(scores_by_window):
        # network.sbs returns scores in the order of run_pipeline's sorted keywords
        for s in scores:
            raw = [getattr(s, c) for c in _SCORE_COLUMNS]
            yield [idx, starts[idx], s.keyword, format(raw[0], "g"), *map(repr, raw[1:])]


def _weekly_rows(starts: list[str], weekly: list[WeeklySeries]):
    yield ["series", "window_index", "week_start", "value"]
    for s in weekly:
        for idx, value in enumerate(s.values):
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


def _plot_rows(starts: list[str], sbs_series, targets):
    cols = [(f"sbs:{s.name}", s.values) for s in sbs_series]
    cols += [(f"target:{t.name}", t.values) for t in targets]
    yield ["window_index", "week_start", *(name for name, _ in cols)]
    # every series holds one value per window of ``starts``
    for idx, (start, *values) in enumerate(zip(starts, *(v for _, v in cols), strict=True)):
        yield [idx, start, *map(repr, values)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Pipeline driver.
# ---------------------------------------------------------------------------


def run_pipeline(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    workers: int | None = None,
    stage_mode: str = "run",
) -> dict:
    """Execute the pipeline and return the manifest (also written to disk).

    ``stage_mode`` "score" stops after the score dump; "test" re-runs the
    econometrics from a previously written score dump; "run" does both, so
    its battery reads the dump it has just written.
    """
    if stage_mode not in ("run", "score", "test"):
        raise ValueError(f"unknown stage_mode {stage_mode!r}")
    out = Path(out_dir) if out_dir is not None else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    workers = cfg.workers if workers is None else workers
    manifest: dict = {
        "config_sha256": hashlib.sha256(cfg.config_bytes).hexdigest(),
        "mode": stage_mode,
        "status": "ok",
        "failed_stage": None,
        "caveats": [CAVEAT],
        # the spline and battery floats come from numpy's and scipy's LAPACK calls
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
        "corpus": {},
        "stages": [],
        "artifacts": [],
    }
    artifacts: list[Path] = []

    @contextmanager
    def stage(name: str):
        """Time the block into the manifest; a block that raises names its stage."""
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            manifest["failed_stage"] = name
            raise
        finally:
            manifest["stages"].append(
                {"stage": name, "seconds": round(time.perf_counter() - t0, 6)}
            )

    try:
        with stage("registry"):
            stopwords = load_stopwords(cfg.stopwords_path)
            stemmer = get_stemmer(cfg.language)
            sets = parse_registry(cfg.registry_path)
            keywords = sorted(s.label for s in sets)
            text_cfg = textproc.TextConfig(
                canonical=compile_canonical_map(sets, stemmer, stopwords),
                window_size=cfg.window_size,
                min_token_len=cfg.min_token_len,
            )

        # the run's one window grid: windows 0..len(windows)-1 x keywords
        windows = build_windows(cfg.start_date, cfg.end_date)
        starts = [w.start_date.isoformat() for w in windows]
        if stage_mode in ("run", "score"):
            # scoring needs network and so scipy.sparse; they are imported
            # here, before the timed stages and before the scoring pool
            # forks, and `test` never loads them
            from . import network  # noqa: F401

            with stage("ingest"):
                report = IngestReport()
                docs = list(load_corpus(cfg.corpus_path, cfg.ingest, report))
                assignment = assign_windows(docs, windows, cfg.end_date)
                manifest["corpus"] = {
                    "records": report.records,
                    "loaded": report.loaded,
                    "rejected": len(report.rejects),
                    "excluded_out_of_range": assignment.excluded,
                    "assigned": assignment.assigned,
                    "windows": len(windows),
                }

            with stage("scores"):
                if assignment.assigned == 0:
                    first, last = windows[0], windows[-1]
                    raise PipelineError(
                        "no documents fell into any analysis window "
                        f"{first.index}..{last.index} "
                        f"({first.start_date.isoformat()}..{last.end_date.isoformat()})"
                    )
                scores_by_window = _score_windows(windows, assignment, text_cfg, keywords, cfg, workers)

            with stage("write_scores"):
                artifacts.append(_write_csv(out / SCORES_CSV, _scores_rows(starts, scores_by_window)))

        if stage_mode in ("run", "test"):
            with stage("read_scores"):
                scores_path = out / SCORES_CSV
                if not scores_path.is_file():
                    raise PipelineError(
                        f"stage 'test' needs a previous score dump at {scores_path}"
                    )
                sbs_series = _read_scores_csv(scores_path, starts, keywords)

            with stage("targets"):
                monthly = series.load_monthly(cfg.monthly_path)
                # unset climate targets: every series not asked as a question
                climate_names = cfg.climate_targets or [
                    m.name for m in monthly if m.name not in cfg.question_targets
                ]
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

            with stage("causality"):
                climate = [weekly_by_name[n] for n in climate_names]
                questions = [weekly_by_name[n] for n in cfg.question_targets]
                results = causality.run_battery(
                    sbs_series, climate + questions, p_max=cfg.p_max, workers=workers
                )
                main_rows = [r for r in results if r.target in climate_set]
                question_rows = [r for r in results if r.target in question_set]

            with stage("write_tables"):
                artifacts.append(_write_csv(out / GRANGER_CSV, _granger_rows(main_rows), caveat=True))
                question_table = _questions_rows(question_rows, cfg.question_targets)
                artifacts.append(_write_csv(out / QUESTIONS_CSV, question_table, caveat=True))
                plot_table = _plot_rows(starts, sbs_series, climate + questions)
                artifacts.append(_write_csv(out / PLOT_CSV, plot_table))
    except Exception:
        manifest["status"] = "failed"
        _write_manifest(out, manifest, artifacts)
        raise
    _write_manifest(out, manifest, artifacts)
    return manifest


def _write_manifest(out: Path, manifest: dict, artifacts: list[Path]) -> None:
    """Complete the manifest with artifact hashes and write it."""
    manifest["artifacts"] = [{"path": p.name, "sha256": _sha256(p)} for p in artifacts]
    with _replacing(out / MANIFEST_JSON) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _dump_number(cell: str, column: str, where: str, parse=float):
    """The finite number in ``cell``, or a refusal naming its column."""
    # int and float also read "_" separators, padding and non-ASCII digits,
    # none of which the writers emit
    plain = cell.isascii() and "_" not in cell and cell == cell.strip()
    try:
        value = parse(cell) if plain else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise PipelineError(f"{where}, column {column!r}: expected a finite {parse.__name__}, got {cell!r}")
    return value


def _read_scores_csv(path: Path, starts: list[str], keywords: list[str]) -> list[WeeklySeries]:
    """Each keyword's ``sbs`` series from a score dump, in ``keywords`` order,
    refusing a dump that does not hold one row of finite numbers per window
    of ``starts`` and keyword, each dated with that window's start."""
    n_windows = len(starts)
    sbs_by_window: list[dict[str, float]] = [{} for _ in range(n_windows)]
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != _SCORES_HEADER:
            raise PipelineError(f"score dump {path}, line 1: header {header}, not {list(_SCORES_HEADER)}")
        for row in reader:
            where = f"score dump {path}, line {reader.line_num}"
            if len(row) != len(_SCORES_HEADER):
                raise PipelineError(f"{where}: expected {len(_SCORES_HEADER)} cells, got {len(row)}")
            idx_cell, week_start, keyword, *cells = row
            idx = _dump_number(idx_cell, "window_index", where, parse=int)
            if not 0 <= idx < n_windows:
                raise PipelineError(
                    f"{where} has window {idx}, outside this config's "
                    f"windows 0..{n_windows - 1}; it was scored on another date range"
                )
            if week_start != starts[idx]:
                raise PipelineError(
                    f"{where} dates window {idx} {week_start}, this config "
                    f"{starts[idx]}; it was scored on another date range"
                )
            window = sbs_by_window[idx]
            if keyword in window:
                raise PipelineError(f"{where}: keyword {keyword!r} appears twice in window {idx}")
            values = [_dump_number(cell, c, where) for c, cell in zip(_SCORE_COLUMNS, cells)]
            window[keyword] = values[-1]  # sbs; the battery reads no other column
    for idx, window in enumerate(sbs_by_window):
        if sorted(window) != keywords:
            missing = sorted(set(keywords) - set(window))
            unknown = sorted(set(window) - set(keywords))
            raise PipelineError(
                f"score dump {path}: window {idx} of 0..{n_windows - 1} has {len(window)} rows "
                f"for the registry's {len(keywords)} keywords (missing {missing}, "
                f"not in the registry {unknown}); score again with this config"
            )
    return [WeeklySeries(kw, tuple(window[kw] for window in sbs_by_window)) for kw in keywords]
