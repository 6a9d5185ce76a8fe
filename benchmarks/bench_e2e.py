"""Compare a parent commit with the working tree on the perfbench workloads,
end to end, and write BENCH_<short-sha>.json at the repository root.

    python3 benchmarks/bench_e2e.py PARENT_REF [--workloads W ...] [--pairs 10]
        [--seconds 10] [--seed 1] [--workdir DIR]

`git archive PARENT_REF` and a copy of the working tree (tracked and
untracked files that git does not ignore) are exported into two sibling
directories, `parent` and `change`, of a fresh work directory. Each pair of
runs is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in both trees, the parent first on odd pairs and second on even
ones, so a drift of the host over the session falls on both sides. The file
holds both sides of one session; files from different sessions are not
compared directly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def tree_digest(tree: Path) -> str:
    """sha256 over the relative paths and bytes of every file under `tree`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def export(parent_ref: str, workdir: Path) -> dict[str, Path]:
    """The parent commit and the working tree, exported side by side. Both
    paths have the same length on purpose: perfbench's `peak_rss_mb` moves
    with the length of the checkout's path (by up to 10 MB on `dump-1e6`),
    so trees under paths of different lengths read a gap that is not the
    code's."""
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", parent_ref], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, files.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, trees["change"] / name)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its last stdout line, as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Per metric, the quartiles of each side's runs and the count of pairs
    in which the change read lower. `runs` are records {"pair", "side",
    "correct", "failed", "metrics": {name: value}}, one per side per pair."""
    by_pair = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    if set(by_pair) != {(p, s) for p in pairs for s in SIDES}:
        raise ValueError("need one run per side in every pair")
    out = {}
    for name in METRICS:
        values = {s: [by_pair[p, s][name] for p in pairs] for s in SIDES}
        quartiles = {s: dict(zip(("q1", "median", "q3"),
                                 np.percentile(values[s], [25, 50, 75]).tolist()))
                     for s in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        out[name] = dict(quartiles, change_lower=lower, pairs=len(pairs))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", type=Path, help="an empty or missing directory "
                        "to export into (default: a fresh temporary one, removed after)")
    args = parser.parse_args(argv)

    head, dirty = _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain"))
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-e2e-"))
    try:
        trees = export(args.parent_ref, workdir)
        if tree_digest(trees["parent"] / "perfbench") != tree_digest(trees["change"] / "perfbench"):
            print("perfbench/ differs between the two trees; refusing to compare",
                  file=sys.stderr)
            return 2
        src = {side: tree_digest(trees[side] / "src") for side in SIDES}  # before any bytecode
        workloads = {}
        for workload in args.workloads:
            runs = []
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    out = run_once(trees[side], workload, args.seed, args.seconds)
                    runs.append({"pair": pair, "side": side, "correct": out["correct"],
                                 "failed": out["failed"],
                                 "metrics": {m: out["metrics"][m]["value"] for m in METRICS}})
                    print(workload, pair, side, json.dumps(runs[-1]["metrics"]), file=sys.stderr)
            workloads[workload] = {"seed": args.seed, "seconds": args.seconds,
                                   "pairs": args.pairs, "runs": runs,
                                   "metrics": summarize(runs)}
        record = {
            "parent": {"ref": args.parent_ref,
                       "sha": _git("rev-parse", f"{args.parent_ref}^{{commit}}"),
                       "src_sha256": src["parent"]},
            "change": {"sha": head, "dirty": dirty,
                       "src_sha256": src["change"]},
            "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                    "nproc": os.cpu_count(), "workdir_path_chars": len(str(workdir.resolve()))},
            "workloads": workloads,
        }
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    path = ROOT / f"BENCH_{head[:7]}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
