"""Peak memory of ``sbsflow score`` against corpus size.

    PYTHONPATH=src python3 tests/rss_scale.py --workers 1 2000:3 8000:12

Each size ``N_DOCS:N_MONTHS`` is a ``make_fixture`` corpus of that many
documents over that many months, with the long documents of a news corpus
(20-40 sentences of 12-24 words). ``2000:3`` and ``8000:12`` hold the same
documents per window, the second over four times the windows. Each size is
scored once by a fresh ``python -m sbsflow.cli score`` process, with the
sbsflow found on this script's ``PYTHONPATH``; one JSON line per size gives
the corpus size, the process's peak RSS (the largest of it and its worker
processes), its wall time and the score dump's sha256.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from sbsflow.synthetic import make_fixture


def score(config: Path, out: Path, workers: int) -> tuple[float, float]:
    """(peak RSS MB, wall s) of one ``sbsflow score`` process."""
    cmd = [sys.executable, "-m", "sbsflow.cli", "score", "--config", str(config),
           "--out", str(out), "--workers", str(workers)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{' '.join(cmd)} failed")
    # Linux reports the largest RSS among the process and its reaped children in KiB
    return usage.ru_maxrss / 1024.0, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("sizes", nargs="+", help="N_DOCS:N_MONTHS")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for size in args.sizes:
            n_docs, n_months = map(int, size.split(":"))
            root = Path(tmp) / size.replace(":", "_")
            fx = make_fixture(root, seed=args.seed, n_docs=n_docs, n_months=n_months,
                              sentences_per_doc=(20, 40), docs_per_sentence_words=(12, 24))
            rss, wall = score(fx.config_path, root / "out", args.workers)
            dump = (root / "out" / "sbs_scores.csv").read_bytes()
            print(json.dumps({
                "n_docs": n_docs, "n_months": n_months, "windows": fx.n_windows,
                "corpus_mb": round(fx.corpus_path.stat().st_size / 2**20, 2),
                "workers": args.workers, "peak_rss_mb": round(rss, 1), "wall_s": round(wall, 2),
                "sbs_scores_sha256": hashlib.sha256(dump).hexdigest(),
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
