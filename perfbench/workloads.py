"""The benchmark's workloads: CLI jobs generated from a seed, and the checks
that decide whether each job's output is correct.

The program sees only the generated argv. Tent maps run at a=1.99 because the
CLI default a=2 collapses to 0 in float64 by step 52, a known defect these
timings do not cover.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("orbit-1e6", "scan-16x1e5", "combinatorics", "dump-1e6")
WITNESS_FLAGS = {"DC1": "dc1", "DC1half": "dc1half", "DC2": "dc2", "DC3": "dc3",
                 "LY": "ly"}


def expected() -> dict:
    """Values recorded at the commit that added the benchmark: `count-ball`
    counts and the default seed's artifact hashes."""
    return json.loads(Path(__file__).with_name("expected.json").read_text())


@dataclass(frozen=True)
class Job:
    """One `chaoslab.cli.run(argv)` call, the artifact it writes (if any) and
    how to check it: `check` names a method of `Checker`, `expect` is its
    argument."""

    argv: tuple[str, ...]
    out: str | None
    check: str
    expect: object = None


def _job(cmd: str, out: str | None, check: str, expect=None) -> Job:
    argv = cmd.split() + (["--out", out] if out else [])
    return Job(tuple(argv), out, check, expect)


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The jobs of one pass. Same (workload, seed, smoke), same jobs."""
    rng = random.Random(f"{workload}:{seed}")

    def fresh() -> int:
        return rng.randrange(1, 2**31)

    if workload == "orbit-1e6":
        n, w = (4000, 4096) if smoke else (1_000_000, 2**20)
        jobs = [
            _job(f"classify --system {system} --metric {metric} --horizon {n} "
                 f"--seed {fresh()}", f"classify-{name}.csv", "verdict")
            for name, system, metric in (
                ("shift", "full-shift", "hamming-indicator"),
                ("tent", "tent --param 1.99", "absolute"),
                ("logistic", "logistic --param 4", "cantor"),
            )
        ]
        jobs += [
            _job(f"classify --witness {target} --horizon {w} --tau-one 0.25 "
                 f"--tau-zero 0.25", f"witness-{target}.csv", "verdict", flag)
            for target, flag in WITNESS_FLAGS.items()
        ]
        jobs.append(_job(f"phi --witness DC3 --horizon {w} --format svg", "phi-DC3.svg",
                         "svg"))
        return jobs
    if workload == "scan-16x1e5":
        count, n = (4, 2000) if smoke else (16, 100_000)
        return [
            _job(f"scan --count {count} --horizon {n} --system full-shift "
                 f"--metric hamming-indicator --seed {fresh()}", "scan-shift.csv",
                 "clique", count),
            _job(f"scan --count {count} --horizon {n} --system tent --param 1.99 "
                 f"--metric cantor --seed {fresh()}", "scan-tent.csv", "clique", count),
        ]
    if workload == "combinatorics":
        ns, q, horizon, word_len = (
            ((8, 9, 10), "2,2,2", 20000, 6) if smoke else ((18, 19, 20), "2,3,2", 1_000_000, 12)
        )
        grid = [(n, m, eta) for n in ns for m in (3, 4, 5) for eta in (0.25, 0.5, 0.75)]
        rng.shuffle(grid)
        counts = expected()["count_ball"]
        jobs = []
        for n, m, eta in grid:
            # the count is invariant under XOR with a0, so any a0 must match
            a0 = "".join(rng.choice("01") for _ in range(n))
            jobs.append(_job(f"count-ball --n {n} --m {m} --eta {eta} --a0 {a0}",
                             f"count-ball-{n}-{m}-{eta}.csv", "count",
                             counts[f"{n},{m},{eta}"]))
        jobs += [
            _job(f"verify --suite {suite} --q {q} --seed {fresh()}", None, "stdout", "OK")
            for suite in ("pi-bijection", "percentage", "scheme")
        ]
        jobs += [
            _job(f"forge --dump blocks --q {q}", "forge-blocks.txt", "blocks"),
            _job(f"entropy --empirical --horizon {horizon} --word-len {word_len} "
                 f"--seed {fresh()}", "entropy.csv", "entropy"),
            _job("pipka --eta 0.81 --h 1 --card 2", "pipka.csv", "nonempty"),
        ]
        return jobs
    if workload == "dump-1e6":
        n, m = (5000, 2000) if smoke else (1_000_000, 250_000)
        return [
            _job(f"pair --horizon {n} --seed {fresh()}", "pair-shift.csv", "rows", n),
            _job(f"pair --system tent --param 1.99 --horizon {m} --seed {fresh()}",
                 "pair-tent.csv", "rows", m),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _data_rows(text: str) -> list[list[str]]:
    """CSV rows after the '#' header and the column-name line."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


class Checker:
    """Each method returns None when the output is right, else a reason."""

    @staticmethod
    def verdict(text: str, flag) -> str | None:
        (row,) = _data_rows(text)
        flags = dict(zip(("ly", "dc1", "dc1half", "dc2", "dc3"),
                         (v == "True" for v in row[1:6])))
        chain = ((not flags["dc1"] or flags["dc1half"])
                 and (not flags["dc1half"] or flags["dc2"])
                 and (not flags["dc2"] or (flags["dc3"] and flags["ly"])))
        if not chain:
            return f"flags break the implication chain: {row}"
        if flag and not flags[flag]:
            return f"witness missed its target flag {flag}: {row}"
        return None

    @staticmethod
    def svg(text: str, _) -> str | None:
        ok = "<svg" in text and text.rstrip().endswith("</svg>")
        return None if ok else "not an svg document"

    @staticmethod
    def clique(text: str, count: int) -> str | None:
        ids = [int(row[0]) for row in _data_rows(text)]
        ok = ids and ids == sorted(set(ids)) and 0 <= ids[0] and ids[-1] < count
        return None if ok else f"bad clique {ids}"

    @staticmethod
    def count(text: str, expected: int) -> str | None:
        (row,) = _data_rows(text)
        return None if int(row[5]) == expected else f"count {row[5]} != {expected}"

    @staticmethod
    def rows(text: str, horizon: int) -> str | None:
        # dumps run to millions of rows: count lines rather than split them
        body = text[text.index("\nn,") + 1:].rstrip("\n")
        rows = body.count("\n")
        ok = rows == horizon and body.rpartition("\n")[2].startswith(f"{horizon},")
        return None if ok else f"{rows} rows, expected {horizon}"

    @staticmethod
    def entropy(text: str, _) -> str | None:
        rates = {row[0]: float(row[4]) for row in _data_rows(text)}
        ok = 0.0 <= rates["marker-block"] < rates["iid-fair-bits"] <= 1.0
        return None if ok else f"entropy rates out of order: {rates}"

    @staticmethod
    def blocks(text: str, _) -> str | None:
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        count = len(set(rows))
        ok = (count == len(rows) and count & (count - 1) == 0
              and len({len(r) for r in rows}) == 1 and set("".join(rows)) <= set("01"))
        return None if ok else f"{len(rows)} rows are not a distinct binary family"

    @staticmethod
    def nonempty(text: str, _) -> str | None:
        return None if _data_rows(text) else "no data rows"

    @staticmethod
    def stdout(text: str, marker: str) -> str | None:
        return None if marker in text else f"stdout lacks {marker!r}: {text.strip()!r}"


def check_job(job: Job, rc, stdout: str, workdir: Path) -> tuple[str | None, str | None]:
    """(failure reason or None, artifact sha256 or None) for one finished job."""
    if rc != 0:
        return f"exit code {rc}", None
    if job.out is None:
        return getattr(Checker, job.check)(stdout, job.expect), None
    try:
        data = (workdir / job.out).read_bytes()
        reason = getattr(Checker, job.check)(data.decode("utf-8"), job.expect)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}", None
    return reason, hashlib.sha256(data).hexdigest()
