"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_reports_every_layer(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    result, record = json.loads(result), json.loads(record)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record["absent"] == []
    assert record["passes"] >= 1 and record["traced_passes"] >= 1


def test_smoke_untraced_run_reports_end_to_end_metrics():
    proc = _run(ROOT, "--workload", "dump-1e6", "--seed", "7", "--seconds", "0.1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(tmp_path, "--workload", "orbit-1e6", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    record = {"workload": "orbit-1e6", "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
              "env": {"CHAOSLAB_BACKEND": None, "using_numba": False}}
    for side, numba in (("base", False), ("new", True)):
        (tmp_path / side).mkdir()
        env = dict(record["env"], using_numba=numba)
        (tmp_path / side / "r.json").write_text(json.dumps(dict(record, env=env)))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert "different backends" in capsys.readouterr().err
