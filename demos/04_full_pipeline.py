"""
The full pipeline on a synthetic corpus
=======================================

A small self-describing fixture (dated news items with planted keyword
intensities, a keyword registry, and monthly target series) is generated
on the fly, then the whole pipeline runs from one config: per-window
keyword scores, weekly disaggregated targets, the causality battery, and
a manifest with content hashes. The same run is available from the shell
as ``sbsflow run --config <path>``.
"""
import json
import tempfile
from pathlib import Path

from sbsflow import run_pipeline, validate_config
from sbsflow.synthetic import make_fixture

with tempfile.TemporaryDirectory(prefix="sbsflow_demo_") as tmp:
    workdir = Path(tmp)
    fixture = make_fixture(workdir, seed=7, n_docs=200, n_months=12)
    print(f"fixture in {workdir}")
    print(f"  {fixture.n_docs} documents over {fixture.n_windows} weekly windows")
    print(f"  keywords: {fixture.keywords}")
    print(f"  planted mentions: {fixture.planted_counts}")

    cfg = validate_config(fixture.config_path)
    manifest = run_pipeline(cfg)

    print("\nstage timings:")
    for stage in manifest["stages"]:
        print(f"  {stage['stage']:14s} {stage['seconds']:7.3f}s")

    print("\nartifacts:")
    for artifact in manifest["artifacts"]:
        print(f"  {artifact['path']:28s} sha256={artifact['sha256'][:16]}")

    scores_csv = cfg.output_dir / "sbs_scores.csv"
    print(f"\nfirst score rows from {scores_csv.name}:")
    for line in scores_csv.read_text().splitlines()[:4]:
        print(" ", line)

    battery_csv = cfg.output_dir / "granger_tests.csv"
    print(f"\ncausality rows from {battery_csv.name}:")
    for line in battery_csv.read_text().splitlines()[:6]:
        print(" ", line)

    print("\nmanifest summary:", json.dumps(manifest["corpus"], indent=2))
