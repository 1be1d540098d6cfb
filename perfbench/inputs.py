"""Workload definitions and seeded input generation.

Every workload is a directory holding corpus.jsonl, keywords.yaml,
monthly.csv and config.yaml, generated from the seed alone through
``sbsflow.synthetic.make_fixture``. Paths inside the config are relative,
so the same seed gives byte-identical inputs in every checkout.
"""
from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from sbsflow.keywords import fixture_path, parse_registry
from sbsflow.synthetic import make_fixture

INPUT_FILES = ("corpus.jsonl", "keywords.yaml", "monthly.csv", "config.yaml")


@dataclass(frozen=True)
class Size:
    n_docs: int
    n_months: int
    setup_reps: int  # cold `validate` processes whose median is setup_s
    min_samples: int  # timed command runs made even past the deadline


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # the timed CLI subcommand: "run" or "test"
    language: str
    vocab_size: int
    start: date
    p_max: int
    workers: int
    full_registry: bool
    climate: tuple[str, ...]
    questions: tuple[str, ...]
    sizes: dict[str, Size]
    why: str


# make_fixture's own three monthly series
_FIXTURE_SERIES = ("climate", "personal", "economic")
# the paper's table layout: 5 climate indices and 9 survey questions
_PAPER_CLIMATE = ("climate", "personal", "economic", "current", "future")
_PAPER_QUESTIONS = tuple(f"q{i:02d}" for i in range(1, 10))

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="graph_heavy",
            mode="run",
            language="english",
            vocab_size=720,
            start=date(2021, 1, 4),
            p_max=4,
            workers=1,
            full_registry=False,
            climate=_FIXTURE_SERIES,
            questions=(),
            sizes={"full": Size(800, 24, 3, 3), "smoke": Size(40, 6, 1, 1)},
            why="large sparse word graphs with a 720-word vocabulary, run serially; "
            "weighted betweenness (network.connectivity) dominates",
        ),
        Workload(
            name="text_heavy",
            mode="run",
            language="italian",
            vocab_size=60,
            start=date(2021, 1, 4),
            p_max=4,
            workers=2,
            full_registry=False,
            climate=_FIXTURE_SERIES,
            questions=(),
            sizes={"full": Size(2600, 6, 3, 3), "smoke": Size(120, 6, 1, 1)},
            why="many documents over a 60-word vocabulary with the Italian stemmer "
            "and a 2-process pool; tokenizing and stemming dominate",
        ),
        Workload(
            name="battery_rerun",
            mode="test",
            language="english",
            vocab_size=120,
            start=date(2017, 1, 2),
            p_max=8,
            workers=2,
            full_registry=True,
            climate=_PAPER_CLIMATE,
            questions=_PAPER_QUESTIONS,
            sizes={"full": Size(384, 44, 3, 3), "smoke": Size(40, 9, 1, 1)},
            why="`sbsflow test` on a 59-keyword, 14-target, 192-week score dump; "
            "the BIC/F battery dominates and no text or graph code runs",
        ),
    ]
}


def _full_keyword_sets() -> list[dict]:
    return [
        {"label": s.label, "members": list(s.members)}
        for s in parse_registry(fixture_path("keywords_full.yaml"))
    ]


def _write_monthly(path: Path, names: tuple[str, ...], n_months: int, start: date,
                   rng: np.random.Generator) -> None:
    """Smooth random-walk indices around 100, one column per target."""
    walks = 100 + rng.normal(0.0, 1.0, size=(len(names), n_months)).cumsum(axis=1)
    year, month = start.year, start.month
    with path.open("w", encoding="utf-8") as fh:
        fh.write("month," + ",".join(names) + "\n")
        for j in range(n_months):
            cells = ",".join(f"{walks[k, j]:.4f}" for k in range(len(names)))
            fh.write(f"{year:04d}-{month:02d},{cells}\n")
            year, month = (year + 1, 1) if month == 12 else (year, month + 1)


def _end_of(start: date, n_months: int) -> date:
    months = start.month - 1 + n_months
    return date(start.year + months // 12, months % 12 + 1, 1)


def generate(workload: Workload, size: str, seed: int, root: Path) -> Path:
    """Write the workload's four input files under ``root``; returns the config path."""
    spec = workload.sizes[size]
    if root.exists():
        shutil.rmtree(root)
    make_fixture(
        root,
        seed=seed,
        n_docs=spec.n_docs,
        n_months=spec.n_months,
        start=workload.start,
        keyword_sets=_full_keyword_sets() if workload.full_registry else None,
        vocab_size=workload.vocab_size,
        workers=workload.workers,
    )
    if workload.full_registry:
        shutil.copyfile(fixture_path("keywords_full.yaml"), root / "keywords.yaml")
    targets = workload.climate + workload.questions
    if targets != _FIXTURE_SERIES:
        rng = np.random.default_rng([seed, 1])
        _write_monthly(root / "monthly.csv", targets, spec.n_months, workload.start, rng)
    lines = [
        "corpus:",
        "  path: corpus.jsonl",
        "  format: jsonl",
        "  include_title: true",
        "registry: keywords.yaml",
        f"language: {workload.language}",
        "window_size: 3",
        "min_edge_weight: 1",
        f"start_date: {workload.start.isoformat()}",
        f"end_date: {_end_of(workload.start, spec.n_months).isoformat()}",
        "monthly_targets: monthly.csv",
        f"climate_targets: [{', '.join(workload.climate)}]",
        f"question_targets: [{', '.join(workload.questions)}]",
        f"p_max: {workload.p_max}",
        "output_dir: out",
        f"workers: {workload.workers}",
        "",
    ]
    config = root / "config.yaml"
    config.write_text("\n".join(lines), encoding="utf-8")
    return config


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(root: Path) -> dict[str, str]:
    """sha256 of each generated input file."""
    return {name: sha256_file(root / name) for name in INPUT_FILES}
