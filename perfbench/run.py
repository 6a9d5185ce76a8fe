"""chaoslab benchmark: fixed CLI workloads, end-to-end timings and, with
`--trace 1`, per-layer spans.

    python3 perfbench/run.py --workload orbit-1e6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs `src/chaoslab`). Each run
starts fresh processes: a few that only set up (import plus warm-up), for the
median set-up time, and one that measures whole passes over the workload's
jobs for `--seconds`. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
full record (environment, per-pass data, failures), which is also written to
`perfbench/out/`. `--smoke` runs the same workloads at tiny sizes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # the whole run must end within 180 s
SETUP_SAMPLES = 5  # fresh processes timed for setup_s (the measuring one included)

sys.path.insert(0, str(HERE))
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() or None


def _child(workdir: Path, opts: dict, env: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(workdir), json.dumps(opts)],
        env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    opts = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "setup_only": True}
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_child(workdir, opts, env, deadline)
                  for _ in range(1 if args.smoke else SETUP_SAMPLES - 1)]
        main = _child(workdir, dict(opts, setup_only=False), env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = main["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = main["warmup_failures"] + [f for s in setups for f in s["failures"]]
    failures += [f for p in passes for f in p["failures"]]
    attempted = main["warmup_attempted"] * (len(setups) + 1) + sum(p["attempted"] for p in passes)
    job_s = [t for p in plain for t in p["job_s"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": dict(main["env"], nproc=os.cpu_count(), git_sha=_git_sha(root),
                    src_sha256=_source_digest(root / "src")),
        "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "passes": len(plain), "traced_passes": len(traced), "job_samples": len(job_s),
        "setup_samples": [s["setup_s"] for s in setups] + [main["setup_s"]],
        "absent": main["absent"],
    }
    if args.trace:
        layers = {name: statistics.median_low(layer[name] for layer in main["layers"])
                  for name, _ in metric_names()}
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
        record["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in metric_names() + [("trace.overhead_s", "s")]}
    else:
        record["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": statistics.median(job_s), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chaoslab" / "cli.py").is_file():
        print(f"no chaoslab source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        record = measure(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
