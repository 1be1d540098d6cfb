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
import re
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy
import scipy

from . import causality, series, textproc
from .config import ConfigError, RunConfig, validate_config
from .corpus import WEEK, IndexEntry, IngestReport, assign_windows, build_windows, csv_rows, load_corpus
from .keywords import CanonicalMap, compile_canonical_map, load_stopwords, parse_registry
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


# ---------------------------------------------------------------------------
# Per-window scoring, parallel over windows.
# ---------------------------------------------------------------------------


def score_window(
    texts: list[str],
    window_index: int,
    canonical: CanonicalMap,
    keywords: list[str],
    *,
    window_size: int,
    min_edge_weight: int,
) -> list[SbsScore]:
    """Score ``keywords`` on the texts of one window's documents.

    ``canonical`` turns the texts into nodes; ``window_size`` and
    ``min_edge_weight`` shape the graph. The scores depend on the arguments
    alone, so windows can be scored in any process and order; the token
    memo of ``canonical`` only saves work, across every call that shares
    the map.
    """
    from . import network

    sequences = [textproc.normalize_document(text, canonical) for text in texts]
    prev = network.prevalence(sequences)
    records = textproc.sequence_cooccurrences(sequences, window_size)
    graph = network.build_graph(
        records,
        min_edge_weight=min_edge_weight,
        extra_nodes=prev.keys(),
        window_index=window_index,
    )
    return network.sbs(graph, prev, keywords)


def _file_stamp(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_size, st.st_mtime_ns


def _score_indexed_window(
    entries: list[IndexEntry],
    window_index: int,
    *,
    cfg: RunConfig,
    stamp: tuple[int, int],
    canonical: CanonicalMap,
    keywords: list[str],
) -> list[SbsScore]:
    """Read one window's records at their ``entries``' positions and score
    them, refusing a corpus that is not the one ingest indexed: its size
    and modification time must still be ``stamp``, and each record must
    still load with the id ingest read there."""
    path = cfg.corpus_path
    changed = f"corpus {path} changed after ingest; score again"
    if _file_stamp(path) != stamp:
        raise PipelineError(f"{changed} (its size or modification time differs)")
    report = IngestReport()
    texts, ids = [], []
    for doc in load_corpus(path, cfg.ingest, report, positions=[e.position for e in entries]):
        texts.append(doc.text(cfg.include_title))
        ids.append(doc.id)
    if report.rejects:
        position, reason = report.rejects[0]
        raise PipelineError(f"{changed} (the record at byte {position} no longer loads: {reason})")
    for entry, doc_id in zip(entries, ids):
        if doc_id != entry.id:
            raise PipelineError(
                f"{changed} (the record at byte {entry.position} has id {doc_id!r}, not {entry.id!r})"
            )
    return score_window(
        texts,
        window_index,
        canonical,
        keywords,
        window_size=cfg.window_size,
        min_edge_weight=cfg.min_edge_weight,
    )


# ---------------------------------------------------------------------------
# Artifact writers. Score z-columns keep full round-trip precision so the
# sbs = z_p + z_d + z_c identity survives serialization; table statistics
# use 6 significant digits.
# ---------------------------------------------------------------------------


def _fmt6(x: float) -> str:
    # the format f_upper_tail certifies a p-value's digits in
    return format(float(x), causality._P_FORMAT)


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
            canonical = compile_canonical_map(sets, stemmer, stopwords, cfg.min_token_len)

        # the run's one window grid, the start day of each window 0..len(starts)-1
        starts = build_windows(cfg.start_date, cfg.end_date)
        week_starts = [start.isoformat() for start in starts]
        if stage_mode in ("run", "score"):
            # scoring needs network and so scipy.sparse; they are imported
            # here, before the timed stages and before the scoring pool
            # forks, and `test` never loads them
            from . import network  # noqa: F401

            with stage("ingest"):
                # one pass validates every record, since a duplicate id can
                # come anywhere in the file; only each accepted record's id,
                # day and position are kept, and the scoring stage reads
                # a window's texts again where it scores the window
                report = IngestReport()
                stamp = _file_stamp(cfg.corpus_path)
                index = [
                    IndexEntry(doc.id, doc.published_at, doc.position)
                    for doc in load_corpus(cfg.corpus_path, cfg.ingest, report)
                ]
                by_window, excluded = assign_windows(index, starts, cfg.end_date)
                assigned = sum(map(len, by_window))
                manifest["corpus"] = {
                    "records": report.records,
                    "loaded": report.loaded,
                    "rejected": len(report.rejects),
                    "excluded_out_of_range": excluded,
                    "assigned": assigned,
                    "windows": len(starts),
                }

            with stage("scores"):
                if assigned == 0:
                    raise PipelineError(
                        f"no documents fell into any analysis window 0..{len(starts) - 1} "
                        f"({starts[0].isoformat()}..{(starts[-1] + WEEK).isoformat()})"
                    )
                # one window per task: a task carries the window's index
                # entries, and the process that scores it reads the texts;
                # each worker process gets one copy of the map and its token memo
                score = partial(
                    _score_indexed_window, cfg=cfg, stamp=stamp, canonical=canonical, keywords=keywords
                )
                scores_by_window = causality.map_in_workers(
                    score, by_window, range(len(starts)), workers=workers
                )

            with stage("write_scores"):
                artifacts.append(_write_csv(out / SCORES_CSV, _scores_rows(week_starts, scores_by_window)))

        if stage_mode in ("run", "test"):
            with stage("read_scores"):
                scores_path = out / SCORES_CSV
                if not scores_path.is_file():
                    raise PipelineError(
                        f"stage 'test' needs a previous score dump at {scores_path}"
                    )
                sbs_series = _read_scores_csv(scores_path, week_starts, keywords)

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
                weekly = [series.disaggregate(m, starts) for m in monthly if m.name in wanted]
                weekly_by_name = {w.name: w for w in weekly}
                artifacts.append(_write_csv(out / WEEKLY_CSV, _weekly_rows(week_starts, weekly)))

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
                plot_table = _plot_rows(week_starts, sbs_series, climate + questions)
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
    if (value := series.finite_number(cell, parse)) is None:
        raise PipelineError(f"{where}, column {column!r}: expected a finite {parse.__name__}, got {cell!r}")
    return value


# a score-dump row's numeric cells joined by "," in the plain form that
# series.finite_number reads as float or int: no whitespace, "_" or non-ASCII
_PLAIN_NUMBERS = re.compile(r"[-+.,0-9eE]*")


def _plain_numbers(row: list[str]) -> tuple[int, float] | None:
    """(window_index, sbs) of a row with the header's cell count whose numeric
    cells are all plain, finite numbers; None for any other row."""
    if len(row) != len(_SCORES_HEADER) or not _PLAIN_NUMBERS.fullmatch(",".join([row[0], *row[3:]])):
        return None
    try:
        idx, values = int(row[0]), [float(cell) for cell in row[3:]]
    except ValueError:  # not a number in that form, or an int too long to read
        return None
    # a sum of finite values is finite unless it overflows, and then the located checks take the row
    return (idx, values[-1]) if math.isfinite(sum(values)) else None


def _read_scores_csv(path: Path, starts: list[str], keywords: list[str]) -> list[WeeklySeries]:
    """Each keyword's ``sbs`` series from a score dump, in ``keywords`` order,
    refusing a dump that is not UTF-8 text, that ``csv`` cannot read or that
    does not hold one row of finite numbers per window of ``starts`` and
    keyword, each dated with that window's start; a row is located by the
    line on which it starts."""
    n_windows = len(starts)
    sbs_by_window: list[dict[str, float]] = [{} for _ in range(n_windows)]
    rows = csv_rows(path, PipelineError, f"score dump {path}")
    _, header = next(rows, (1, []))
    if tuple(header) != _SCORES_HEADER:
        raise PipelineError(f"score dump {path}, line 1: header {header}, not {list(_SCORES_HEADER)}")
    for line, row in rows:
        # a plain row is taken in one check, and any other row at the
        # located checks, which refuse it at its line and column or take it
        plain = _plain_numbers(row)
        if plain is not None:
            idx, sbs = plain
            if 0 <= idx < n_windows and row[1] == starts[idx] and row[2] not in sbs_by_window[idx]:
                sbs_by_window[idx][row[2]] = sbs
                continue
        where = f"score dump {path}, line {line}"
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
