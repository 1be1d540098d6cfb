"""Outside-in benchmark of the sbsflow command line.

    python3 perfbench/run.py --workload graph_heavy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/``. Each workload's inputs are generated from ``--seed``. With
``--trace 0`` every timed sample is a fresh ``python -m sbsflow.cli``
process (closed loop, one client), repeated for ``--seconds`` seconds; the
end-to-end metrics are medians over those samples. With ``--trace 1`` one
untraced and one traced ``workers: 1`` run are made in-process to measure
each module, then CLI runs as above supply the parallel-efficiency base. A
``test`` workload also makes its score dump in-process under the tracer, which
measures the layers that only its set-up reaches.

Every run's artifacts are checked; the last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record (input fingerprint, environment, samples, per-window table) goes to
``result.json`` in the run's work directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # no process outlives this; the whole run must end within 180 s


@dataclass
class Sample:
    exited_ok: bool  # exit code 0 within the timeout; only these are timed
    wall: float
    cpu: float
    rss_mb: float
    scores_s: float | None  # the manifest's `scores` stage
    problems: list[str]


def run_process(cmd: list[str], cwd: Path, env: dict, log: Path,
                timeout: float) -> tuple[int, float, float, float]:
    """Run one process; returns (exit code, wall s, cpu s, peak RSS MB) of it and its children."""
    with log.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports the largest RSS among the process and its reaped children in KiB
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (percent, value)."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sbsflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
    }


class Bench:
    def __init__(self, workload, size: str, seed: int, work: Path, hard_stop: float):
        import checks
        import inputs

        self.checks = checks
        self.w, self.size, self.seed, self.work = workload, size, seed, work
        self.hard_stop = hard_stop
        self.spec = workload.sizes[size]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.inputs_dir = work / "inputs"
        self.out = self.inputs_dir / "out"
        self.config = inputs.generate(workload, size, seed, self.inputs_dir)
        self.fingerprint = inputs.fingerprint(self.inputs_dir)
        self.setup_run: tuple | None = None  # traced in-process score dump of a `test` workload
        self.reference: dict | None = None  # artifact hashes of the first checked run
        self._checked: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._log_no = 0

    def cli(self, *args: str) -> tuple[int, float, float, float]:
        self._log_no += 1
        cmd = [sys.executable, "-m", "sbsflow.cli", *args, "--config", str(self.config)]
        timeout = max(1.0, self.hard_stop - time.perf_counter())
        return run_process(cmd, self.inputs_dir, self.env, self.work / f"stderr-{self._log_no}.txt", timeout)

    def setup(self, traced: bool) -> list[float]:
        """Cold `validate` processes; for `test` workloads also the untimed score dump.

        With ``traced`` the score dump is made in-process under the tracer, so
        the layers that only the set-up reaches are measured as well.
        """
        walls = []
        for _ in range(self.spec.setup_reps):
            rc, wall, _, _ = self.cli("validate")
            if rc != 0:
                raise RuntimeError(f"`sbsflow validate` exited {rc}")
            walls.append(wall)
        if self.w.mode == "test":
            if traced:
                self.setup_run = self.pipeline("score", self.out, traced=True)
            else:
                rc, *_ = self.cli("score", "--out", str(self.out))
                if rc != 0:
                    raise RuntimeError(f"set-up `sbsflow score` exited {rc}")
        return walls

    def clear_outputs(self, out: Path) -> None:
        keep = {"sbs_scores.csv"} if self.w.mode == "test" else set()
        for name in (*self.checks.DATA_ARTIFACTS, "manifest.json"):
            if name not in keep:
                (out / name).unlink(missing_ok=True)

    def check(self, out: Path, exited_ok: bool, problems: list[str]) -> list[str]:
        """Check one run's artifacts and count it as attempted (and failed)."""
        problems = list(problems)
        if exited_ok:
            hashes = self.checks.artifact_hashes(out)
            key = tuple(sorted(hashes.items()))
            if key not in self._checked:
                found = self.checks.structure(out, self.config)
                if self.seed == self.checks.DEFAULT_SEED and self.size == "full":
                    found += self.checks.pins(self.w.name, self.fingerprint, hashes)
                self._checked[key] = found
            problems += self._checked[key]
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                problems.append("artifacts differ from the first run's")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return problems

    def timed_runs(self, until: float, min_samples: int) -> list[Sample]:
        """CLI runs until ``until``; a run predicted to end past it is not started."""
        samples: list[Sample] = []
        while time.perf_counter() < self.hard_stop:
            if len(samples) >= min_samples:
                typical = statistics.median(s.wall for s in samples)
                if time.perf_counter() + typical > until:
                    break
            self.clear_outputs(self.out)
            rc, wall, cpu, rss = self.cli(self.w.mode, "--out", str(self.out))
            failure = [] if rc == 0 else [f"`sbsflow {self.w.mode}` exited {rc}"]
            problems = self.check(self.out, rc == 0, failure)
            scores_s = None
            if not problems:
                stages = json.loads((self.out / "manifest.json").read_text())["stages"]
                scores_s = next((s["seconds"] for s in stages if s["stage"] == "scores"), None)
            samples.append(Sample(rc == 0, wall, cpu, rss, scores_s, problems))
        return samples

    def work_items(self) -> dict:
        """Documents assigned to windows (None for `test`) and (keyword, target) pairs."""
        import yaml

        cfg = yaml.safe_load(self.config.read_text(encoding="utf-8"))
        n_kw = len(yaml.safe_load((self.inputs_dir / cfg["registry"]).read_text(encoding="utf-8")))
        docs = None
        if self.w.mode == "run" and (self.out / "manifest.json").is_file():
            docs = json.loads((self.out / "manifest.json").read_text())["corpus"]["assigned"]
        return {"docs": docs, "pairs": n_kw * (len(cfg["climate_targets"]) + len(cfg["question_targets"]))}

    def pipeline(self, mode: str, out: Path, traced: bool) -> tuple:
        """One in-process workers=1 run: (wall s, manifest, tracer or None)."""
        import tracer as tracing
        from sbsflow.pipeline import run_pipeline, validate_config

        cfg = validate_config(self.config)
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            manifest = run_pipeline(cfg, out_dir=out, workers=1, stage_mode=mode)
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        return wall, manifest, tracer

    def in_process(self) -> dict:
        """One untraced and one traced run of the timed command in this process."""
        import tracer as tracing

        results = {}
        for label in ("untraced", "traced"):
            out = self.work / f"inproc-{label}"
            out.mkdir(parents=True, exist_ok=True)
            if self.w.mode == "test":
                shutil.copyfile(self.out / "sbs_scores.csv", out / "sbs_scores.csv")
            wall, manifest, tracer = self.pipeline(self.w.mode, out, label == "traced")
            problems = []
            if tracer:
                covered = tracing.coverage(tracer, manifest, wall)
                if covered < tracing.MIN_COVERAGE:
                    problems.append(f"traced spans and stages cover {covered:.1%} of the traced run")
            self.check(out, True, problems)
            results[label] = (wall, manifest, tracer)
        return results


def summarize_timed(samples: list[Sample], setup_walls: list[float], work_items: dict) -> tuple[dict, list[str]]:
    ok = [s for s in samples if s.exited_ok]
    failed = sum(1 for s in samples if s.problems)
    lines = [f"timed runs: {len(samples)} attempted, {failed} failed"]
    if not ok:
        return {}, lines
    wall = statistics.median(s.wall for s in ok)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu for s in ok),
        "peak_rss_mb": statistics.median(s.rss_mb for s in ok),
        "pairs_per_s": work_items["pairs"] / wall,
        "setup_s": statistics.median(setup_walls),
    }
    for name, values in (("wall_s", [s.wall for s in ok]), ("cpu_s", [s.cpu for s in ok]),
                         ("setup_s", setup_walls)):
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
        lines.append(f"  {name:<12} median {statistics.median(values):.4f} s; {tail_text}; n={len(values)}")
    lines.append(f"  {'peak_rss_mb':<12} median {metrics['peak_rss_mb']:.1f} MB; max {max(s.rss_mb for s in ok):.1f} MB")
    docs = work_items["docs"]
    lines.append(f"  {'docs_per_s':<12} " + (f"{docs / wall:.2f} docs/s ({docs} docs)" if docs else "null (no documents are read)"))
    lines.append(f"  {'pairs_per_s':<12} {metrics['pairs_per_s']:.2f} pairs/s ({work_items['pairs']} pairs)")
    lines.append(f"  {'failed_frac':<12} {failed / len(samples):.4f} fraction")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench",
                        help="parent of the per-run work directory")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "sbsflow" / "__init__.py").is_file():
        print(f"no sbsflow sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sbsflow

    if Path(sbsflow.__file__).resolve().parent != (SRC / "sbsflow").resolve():
        print(f"imported sbsflow from {sbsflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import inputs

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end" if args.trace == 0 else "per_layer"]}
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    work = args.workdir / f"{workload.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    load_before = os.getloadavg()[0]
    bench = Bench(workload, args.size, args.seed, work, started + DEADLINE_S)
    setup_walls = bench.setup(traced=args.trace == 1)
    record: dict = {
        "workload": workload.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "inputs": bench.fingerprint, "environment": environment(),
        "setup_walls": setup_walls,
    }
    env = record["environment"]
    lines = [
        f"workload {workload.name} ({args.size}, seed {args.seed}): {workload.why}",
        f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, commit {env['git_commit']}, sources {env['source_sha256'][:12]}",
        "inputs: " + ", ".join(f"{name} {digest[:12]}" for name, digest in bench.fingerprint.items()),
    ]
    if args.trace == 0:
        samples = bench.timed_runs(time.perf_counter() + seconds, bench.spec.min_samples)
        metrics, timed_lines = summarize_timed(samples, setup_walls, bench.work_items())
        lines += timed_lines
    else:
        import tracer as tracing

        runs = bench.in_process()
        # CLI runs at the workload's own worker count give the parallel-efficiency base
        samples = bench.timed_runs(started + seconds, 1)
        wall_u, manifest_u, _ = runs["untraced"]
        wall_t, manifest_t, tr = runs["traced"]
        timed_scores = [s.scores_s for s in samples if s.scores_s is not None and not s.problems]
        layers = tracing.layer_metrics(tr, wall_t, manifest_t, wall_u, manifest_u,
                                       timed_scores, workload.workers)
        if bench.setup_run:
            # layers the timed command never reaches are measured in its set-up
            wall_s, manifest_s, tr_s = bench.setup_run
            at_setup = tracing.layer_metrics(tr_s, wall_s, manifest_s, wall_s, manifest_s, [], 1)
            record["layers_from_setup"] = [k for k, v in layers.items() if v is None and at_setup[k] is not None]
            layers = {k: at_setup[k] if v is None else v for k, v in layers.items()}
            record["setup_windows"] = tr_s.window_table()
        record["missing_layers"] = sorted(k for k, v in layers.items() if v is None)
        record["windows"] = tr.window_table()
        record["traced_wall_s"], record["untraced_wall_s"] = wall_t, wall_u
        lines.append(f"in-process workers=1: untraced {wall_u:.4f} s, traced {wall_t:.4f} s")
        from_setup = set(record.get("layers_from_setup", ()))
        for name, unit in units.items():
            value = layers[name]
            shown = "null" if value is None else f"{value:.6g}"
            note = ""
            if name in from_setup:
                note = "  (set-up `score` run)"
            elif value is not None and unit == "s":
                note = f"  ({value / wall_t:.1%} of traced wall)"
            lines.append(f"  {name:<30} {shown} {unit}{note}")
        # the result line needs a number for every metric: a layer never reached did no work
        metrics = {name: 0 if value is None else value for name, value in layers.items()}

    record["metrics"] = metrics
    record["artifacts"] = bench.reference
    record["samples"] = [vars(s) for s in samples]
    record["problems"] = bench.problems
    record["load_avg_1m"] = {"before": load_before, "after": os.getloadavg()[0]}
    lines.append(f"load average (1 min): before {load_before:.2f}, after {record['load_avg_1m']['after']:.2f}")
    for problem in dict.fromkeys(bench.problems):
        lines.append(f"CHECK FAILED: {problem}")
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.append(f"full record: {work / 'result.json'}")
    print("\n".join(lines))
    if not metrics:
        print("no timed run exited 0; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
