"""Smoke tests of the benchmark itself: tiny inputs, structural checks only."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import inputs
    finally:
        del sys.path[:2]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_traced(workload, tmp_path):
    result = result_line(bench(ROOT, "--workload", workload, "--size", "smoke", "--seconds", "0",
                               "--trace", "1", "--workdir", str(tmp_path)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    record = json.loads(next(tmp_path.glob("*/result.json")).read_text())
    # `test` has no scores stage of its own to set against a serial one
    expected_missing = ["pipeline.parallel_efficiency"] if workload == "battery_rerun" else []
    assert record["missing_layers"] == expected_missing
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if v["unit"] == "s")


def test_smoke_timed(tmp_path):
    result = result_line(bench(ROOT, "--workload", "graph_heavy", "--size", "smoke", "--seconds", "0",
                               "--trace", "0", "--workdir", str(tmp_path)))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(tmp_path, "--workload", "graph_heavy", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_inputs():
    sys.path.insert(0, str(HERE))
    try:
        from compare import compare
    finally:
        sys.path.remove(str(HERE))
    base = {"workload": "graph_heavy", "size": "full", "trace": 0, "inputs": {"corpus.jsonl": "a"}}
    code, lines = compare(base, dict(base, inputs={"corpus.jsonl": "b"}))
    assert code == 2 and "inputs" in lines[0]
