"""The benchmark scripts import against the current API, so a name renamed
or deleted in `chaoslab` fails here rather than when a script next runs;
`bench_e2e.py`'s summary is checked on hand-made records (perfbench itself
never runs here), and every committed `BENCH_*.json` against its schema."""
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_imports_without_running():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the script runs main() only as __main__
    assert callable(module.main)


E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_e2e.py"
ROOT = E2E.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def load_e2e():
    spec = importlib.util.spec_from_file_location("bench_e2e", E2E)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hand_runs(values):
    """Records of one metric per pair: values[i] = (parent, change)."""
    return [{"pair": i, "side": side, "correct": True, "failed": 0,
             "metrics": {name: v for name in END_TO_END}}
            for i, pair in enumerate(values, start=1)
            for side, v in zip(("parent", "change"), pair)]


def test_summary_of_hand_made_records():
    e2e = load_e2e()
    assert e2e.METRICS == END_TO_END
    pairs = [(1.0, 0.5), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0), (5.0, 1.0)]
    summary = e2e.summarize(hand_runs(pairs))
    assert set(summary) == set(END_TO_END)
    for row in summary.values():
        assert row["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
        assert row["change"] == {"q1": 1.0, "median": 2.0, "q3": 3.0}
        assert row["change_lower"] == 3 and row["pairs"] == 5
    with pytest.raises(ValueError, match="one run per side"):
        e2e.summarize(hand_runs([(1.0, 2.0), (3.0, 4.0)])[:-1])


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_file_schema(path):
    record = json.loads(path.read_text())
    assert set(record) == {"parent", "change", "env", "workloads"}
    assert set(record["parent"]) == {"ref", "sha", "src_sha256"}
    assert set(record["change"]) == {"sha", "dirty", "src_sha256"}
    assert re.fullmatch(r"BENCH_[0-9a-f]{7}(-dirty)?\.json", path.name)
    assert path.name[6:13] == record["change"]["sha"][:7]
    assert path.name.endswith("-dirty.json") == record["change"]["dirty"]
    assert set(record["env"]) == {"python", "numpy", "nproc", "workdir_path_chars"}
    assert set(record["workloads"]) <= {w["name"] for w in BENCHMARK["workloads"]}
    e2e = load_e2e()
    for workload in record["workloads"].values():
        runs = workload["runs"]
        assert len(runs) == 2 * workload["pairs"]
        for run in runs:
            assert isinstance(run["correct"], bool) and isinstance(run["failed"], int)
            assert set(run["metrics"]) == set(END_TO_END)
        assert set(workload["metrics"]) == set(END_TO_END)
        assert workload["metrics"] == e2e.summarize(runs)
