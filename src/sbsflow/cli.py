"""Command line entry point.

    sbsflow validate --config cfg.yaml
    sbsflow run      --config cfg.yaml [--workers N] [--out DIR]
    sbsflow score    --config cfg.yaml [--workers N] [--out DIR]
    sbsflow test     --config cfg.yaml [--workers N] [--out DIR]

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbsflow",
        description="Weekly keyword-importance series and Granger causality tables from a news corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check a run config and report every problem"),
        ("run", "full pipeline: scores, weekly targets, causality tables"),
        ("score", "stop after the per-window score dump"),
        ("test", "causality only, from a previously emitted score dump"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        if name != "validate":
            p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
            p.add_argument("--workers", type=int, default=None, help="worker processes (default: config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        print(f"--workers: expected an integer >= 1, got {workers!r}", file=sys.stderr)
        return 1
    try:
        cfg = validate_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"config ok: {args.config}")
        return 0
    # the process pools are the only parallelism: OpenBLAS helper threads
    # would spin beside them and restart around every fork
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the numeric stack loads only for a command that runs the pipeline
    from .pipeline import run_pipeline

    try:
        manifest = run_pipeline(
            cfg,
            out_dir=args.out,
            workers=workers,
            stage_mode=args.command,
        )
    except Exception as exc:  # runtime failure: manifest records the stage
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 2
    for entry in manifest["artifacts"]:
        print(f"wrote {entry['path']}  sha256={entry['sha256'][:12]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
