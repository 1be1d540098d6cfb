"""Compare two benchmark result files made from the same inputs.

    python3 perfbench/compare.py BASE_RESULT.json NEW_RESULT.json

Prints each metric of both runs and their ratio, and whether the five data
artifacts are byte-identical. Refuses, with exit code 2, to compare results
of different workloads, sizes or trace modes, or whose input fingerprints
differ: a changed generator makes the numbers incomparable.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("workload", "size", "trace", "inputs")


def compare(base: dict, new: dict) -> tuple[int, list[str]]:
    differing = [key for key in MUST_MATCH if base[key] != new[key]]
    if differing:
        return 2, [f"refusing to compare: {', '.join(differing)} differ"]
    lines = [
        f"{base['workload']} ({base['size']}, trace {base['trace']}): "
        f"{base['environment']['source_sha256'][:12]} -> {new['environment']['source_sha256'][:12]}"
    ]
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        ratio = f"{n / b:.4f}" if isinstance(n, (int, float)) and b else "n/a"
        lines.append(f"  {name:<30} {b!s:>22} {n!s:>22}  ratio {ratio}")
    same = base["artifacts"] == new["artifacts"]
    lines.append(f"  artifacts {'byte-identical' if same else 'DIFFER'}")
    return 0, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    code, lines = compare(base, new)
    print("\n".join(lines), file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
