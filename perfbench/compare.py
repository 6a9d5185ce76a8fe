"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records run.py writes to `perfbench/out/`.
Prints, per workload and metric, each side's median and quartiles over its
records and the change of the medians. Records taken on different kernel
backends measure different code, so the comparison is refused (exit 2).
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def backend(record: dict) -> tuple:
    env = record["env"]
    return env.get("CHAOSLAB_BACKEND"), env.get("using_numba")


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(s: tuple[float, float, float]) -> str:
    return f"{s[1]:.4g} [{s[0]:.4g}, {s[2]:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("each directory needs at least one record", file=sys.stderr)
        return 1
    backends = {backend(r) for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare records from different backends: {sorted(map(str, backends))}",
              file=sys.stderr)
        return 2
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for side, records in ((0, base), (1, new)):
        for r in records:
            for name, metric in r["metrics"].items():
                groups.setdefault((r["workload"], name), ([], []))[side].append(metric["value"])
    print(f"{'workload':<15}{'metric':<44}{'base median [q1, q3]':>30}"
          f"{'new median [q1, q3]':>30}{'change':>9}")
    for (workload, name), (a, b) in sorted(groups.items()):
        if not a or not b:
            continue
        sa, sb = summary(a), summary(b)
        change = f"{(sb[1] - sa[1]) / sa[1]:+.1%}" if sa[1] else "n/a"
        print(f"{workload:<15}{name:<44}{cell(sa):>30}{cell(sb):>30}{change:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
