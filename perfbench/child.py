"""One fresh measuring process: set up, then run passes over a workload's
jobs through `chaoslab.cli.run`, one job after another (one client, closed
loop). Started by run.py; prints one JSON object as its last stdout line.

    python3 child.py WORKDIR JSON_OPTIONS
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import DEFAULT_SEED, build_jobs, check_job, expected

_now = time.perf_counter


def run_pass(cli, jobs, workdir: Path, reference: dict) -> dict:
    """Run every job once, then check the outputs. `reference` holds the
    artifact hashes each job must reproduce byte for byte; the first pass
    that sees a job fills it in."""
    times, results = [], []
    start = _now()
    for job in jobs:
        out = io.StringIO()
        t0 = _now()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.run(list(job.argv))
            except Exception as exc:  # a crash is one failed job, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
        times.append(_now() - t0)
        results.append((rc, out.getvalue()))
    wall = _now() - start
    failures = []
    for job, (rc, stdout) in zip(jobs, results):
        reason, digest = check_job(job, rc, stdout, workdir)
        if reason is None and digest is not None:
            expected = reference.setdefault(job.out, digest)
            if digest != expected:
                reason = f"{job.out} sha256 {digest[:12]} != {expected[:12]}"
        if reason is not None:
            failures.append(f"{' '.join(job.argv[:3])}: {reason}")
    return {"wall_s": wall, "job_s": times, "attempted": len(jobs), "failures": failures}


def main() -> None:
    workdir = Path(sys.argv[1])
    opts = json.loads(sys.argv[2])
    workload, seed, smoke = opts["workload"], opts["seed"], opts["smoke"]
    jobs = build_jobs(workload, seed, smoke)
    warmup = build_jobs(workload, seed, smoke=True)
    os.chdir(workdir)

    # set-up: the import plus one pass of the tiny jobs, so lazy imports and
    # first-call costs are paid before timing
    t0 = _now()
    import chaoslab.cli as cli

    warm = run_pass(cli, warmup, workdir, {})
    setup_s = _now() - t0
    if opts["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "failures": warm["failures"]}))
        return

    # artifacts of the default seed must match the hashes recorded at the
    # commit that defined the benchmark
    mode = "smoke" if smoke else "full"
    reference = expected()["sha256"][mode][workload] if seed == DEFAULT_SEED else {}
    tracer = Tracer() if opts["trace"] else None
    passes, layers, cycles = [], [], []
    start = _now()
    while True:
        cycle_start = _now()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            record = run_pass(cli, jobs, workdir, reference)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        passes.append(record)
        if traced:
            layers.append(tracer.reduce())
        # stop before a pass that would end after `seconds`, at the median
        # time of a pass and its checks so far; a traced run needs one plain
        # and one traced pass
        cycles.append(_now() - cycle_start)
        enough = tracer is None or len(passes) >= 2
        if enough and _now() - start + statistics.median(cycles) > opts["seconds"]:
            break

    import numpy

    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "warmup_failures": warm["failures"],
        "warmup_attempted": warm["attempted"],
        "layers": layers,
        "absent": tracer.absent if tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "CHAOSLAB_BACKEND": os.environ.get("CHAOSLAB_BACKEND"),
            "using_numba": getattr(sys.modules.get("chaoslab._kernels"), "USING_NUMBA", None),
        },
    }))


if __name__ == "__main__":
    main()
