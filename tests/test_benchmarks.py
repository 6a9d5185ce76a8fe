"""The benchmark script imports against the current API, so a name renamed
or deleted in `chaoslab` fails here rather than when the script next runs."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_imports_without_running():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the script runs main() only as __main__
    assert callable(module.main)
