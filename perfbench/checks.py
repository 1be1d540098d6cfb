"""Output checks for one run's artifacts.

Structural invariants hold on every seed; the sha256 pins in
``expected_sha256.json`` hold for the default seed at full size only. To
re-pin after a deliberate change of the workloads, run each workload with
``--seed 0`` and copy ``inputs`` and ``artifacts`` from its result.json.
Each check returns a list of problems; an empty list means the run passed.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import yaml

from inputs import sha256_file

DATA_ARTIFACTS = (
    "sbs_scores.csv",
    "weekly_targets.csv",
    "granger_tests.csv",
    "granger_questions_wide.csv",
    "plot_data.csv",
)
PINS_PATH = Path(__file__).with_name("expected_sha256.json")
DEFAULT_SEED = 0


def artifact_hashes(out_dir: Path) -> dict[str, str | None]:
    return {
        name: sha256_file(out_dir / name) if (out_dir / name).is_file() else None
        for name in DATA_ARTIFACTS
    }


def _rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def structure(out_dir: Path, config_path: Path) -> list[str]:
    """Shape and identity invariants of the five data artifacts."""
    cfg = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    n_windows = -(-(cfg["end_date"] - cfg["start_date"]).days // 7)
    registry = yaml.safe_load((config_path.parent / cfg["registry"]).read_text(encoding="utf-8"))
    n_kw = len(registry)
    climate, questions = cfg["climate_targets"], cfg["question_targets"] or []
    problems = []
    missing = [n for n in DATA_ARTIFACTS if not (out_dir / n).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]

    scores = _rows(out_dir / "sbs_scores.csv")[1:]
    if len(scores) != n_windows * n_kw:
        problems.append(f"sbs_scores rows {len(scores)} != {n_windows} windows x {n_kw} keywords")
    for row in scores:
        zp, zd, zc, total = (float(v) for v in row[6:10])
        if zp + zd + zc != total:
            problems.append(f"sbs != z_p + z_d + z_c in window {row[0]}, keyword {row[2]}")
            break

    weekly = _rows(out_dir / "weekly_targets.csv")[1:]
    n_targets = len(climate) + len(questions)
    if len(weekly) != n_targets * n_windows:
        problems.append(f"weekly_targets rows {len(weekly)} != {n_targets} targets x {n_windows} windows")

    granger = _rows(out_dir / "granger_tests.csv")[1:]
    if len(granger) != n_kw * len(climate):
        problems.append(f"granger_tests rows {len(granger)} != {n_kw} keywords x {len(climate)} targets")
    wide = _rows(out_dir / "granger_questions_wide.csv")
    if questions:
        if wide[0][1:] != questions or len(wide) - 1 != n_kw:
            problems.append(f"granger_questions_wide is not {n_kw} keywords x {len(questions)} questions")

    plot = _rows(out_dir / "plot_data.csv")
    if len(plot[0]) != 2 + n_kw + n_targets or len(plot) - 1 != n_windows:
        problems.append("plot_data is not windows x (keywords + targets)")

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest["status"] != "ok":
        problems.append(f"manifest status {manifest['status']!r}")
    return problems


def pins(workload: str, fingerprint: dict, hashes: dict) -> list[str]:
    """Compare against the pinned default-seed artifacts of this workload."""
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8")).get(workload)
    if pinned is None:
        return [f"no pinned artifacts for {workload}"]
    if pinned["inputs"] != fingerprint:
        return ["generated inputs differ from the pinned inputs; the pins do not apply"]
    return [
        f"{name} sha256 {hashes[name]} != pinned {want}"
        for name, want in pinned["artifacts"].items()
        if hashes.get(name) != want
    ]
