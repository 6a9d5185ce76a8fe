import argparse
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoslab as c
from chaoslab import cli
from chaoslab.cli import (
    PAIR_KEYS,
    _build_pair,
    _header,
    _pair_chunks,
    _text,
    atomic_write,
    build_parser,
    load_config,
    run,
)
from chaoslab.errors import UsageError
from chaoslab.svgplot import render_phi_svg
from oracles import csv_text_direct, pair_dump_direct


def read(path):
    return Path(path).read_text()


COUNT_BALL = ["count-ball", "--n", "8", "--m", "2", "--eta", "0.5"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["definitely-not-a-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["pipka", "--eta", "0.5", "--h", "1", "--card", "2", "--bogus"]) == 1

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_guard_exceeded_is_three(self, tmp_path):
        # p_5 = 32 free bits: 2^32 blocks exceed the enumeration guard
        assert run(
            ["forge", "--dump", "blocks", "--q", "2,2,2,2,2",
             "--out", str(tmp_path / "x.txt")]
        ) == 3
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_count_ball_has_no_size_guard(self, n, tmp_path):
        out = tmp_path / "ball.csv"
        argv = ["count-ball", "--n", str(n), "--m", "5", "--eta", "0.5"]
        assert run(argv + ["--out", str(out)]) == 0
        (row,) = [l.split(",") for l in read(out).splitlines()[-1:]]
        count = int(row[5])
        assert count == c.count_eta_ball("0" * n, 5, 0.5)
        assert float(row[7]) == count / (1 << n)
        # the closed-form bound leaves the float range near n = 940
        bound = c.eta_ball_bound(n, 5, 0.5, 0.005, 1.0, 2, 0.01)
        assert row[6] == repr(bound.value)
        assert (row[6] == "inf") == (n == 1024)

    @pytest.mark.parametrize("eta", ["nan", "inf", "-inf"])
    def test_count_ball_non_finite_eta_is_usage(self, eta, tmp_path, capsys):
        out = tmp_path / "ball.csv"
        assert run(["count-ball", "--n", "8", "--m", "2", f"--eta={eta}", "--out", str(out)]) == 1
        assert "eta must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pair", "--arity", "0"], "full shift needs arity >= 2"),
            (["pair", "--probs", "nan,0.5"], "probabilities must be finite and nonnegative"),
            (["pipka", "--eta", "0.5", "--h", "nan", "--card", "2"], "h must be finite and >= 0"),
            (["pipka", "--eta", "0.5", "--h", "1", "--card", "2", "--eps-grid", "0.01,nan"],
             "eps grid values must be finite"),
            (["pipka", "--eta", "0.5", "--h", "1", "--card", "2", "--eps-grid", "-0.5"],
             "eps grid values must be > 0"),
            (["pipka", "--eta", "0.5", "--h", "1", "--card", "2", "--eps-grid", "0.01,0"],
             "eps grid values must be > 0"),
            (["pair", "--system", "tent", "--param", "1.99", "--coding-depth", "64",
              "--horizon", "50"], "coding depth must lie in 1..63, got 64"),
            (COUNT_BALL + ["--eps", "nan"], "eps must be finite"),
            (COUNT_BALL + ["--eps", "-1"], "eps must be > 0"),
            (COUNT_BALL + ["--h", "nan"], "h must be finite and >= 0"),
            (COUNT_BALL + ["--h", "-3"], "h must be finite and >= 0"),
            (COUNT_BALL + ["--delta", "inf"], "delta must be finite"),
            (COUNT_BALL + ["--card", "1"], "partition cardinality must be >= 2"),
            (["pair", "--system", "odometer"], "odometer needs --base"),
            (["pair", "--system", "zero-entropy"], "zero-entropy needs --q"),
        ],
        ids=["arity-zero", "probs-nan", "pipka-h-nan", "pipka-eps-nan", "pipka-eps-negative",
             "pipka-eps-zero", "coding-depth-64", "count-ball-eps-nan", "count-ball-eps-negative",
             "count-ball-h-nan", "count-ball-h-negative", "count-ball-delta-inf",
             "count-ball-card-one", "odometer-no-base", "zero-entropy-no-q"],
    )
    def test_degenerate_value_is_usage(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--horizon", "50"], "horizon 50 below burn-in 100: no checkpoints"),
            (["classify", "--metric", "absolute", "--horizon", "500"],
             "absolute needs real tracks"),
            (["classify", "--witness", "DC1", "--horizon", "10"],
             "horizon 10 covers only 3 runs of the DC1 schedule; at least 6 required"),
        ],
        ids=["no-checkpoints", "metric-unavailable", "witness-too-short"],
    )
    def test_library_error_is_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_coding_depth_63_packs_into_int64(self, tmp_path):
        out = tmp_path / "pair.csv"
        argv = ["pair", "--system", "tent", "--param", "1.99", "--coding-depth", "63",
                "--horizon", "50", "--out", str(out)]
        assert run(argv) == 0
        rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 50 and all(0 <= int(r[1]) < 2**63 for r in rows)

    def test_pipka_m_search_ends_where_m_plus_one_rounds_away(self, tmp_path):
        # m is near 1e153, where two_h / (m + 1) is the float two_h / m: a
        # search stepping m by one never ends, so run it under a timeout
        out = tmp_path / "pipka.csv"
        argv = ["pipka", "--eta", "1e-300", "--h", "1e-300", "--card", "2", "--eps-grid", "5e-324"]
        code = "import sys; from chaoslab.cli import run; sys.exit(run(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(c.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(out)], env=env, timeout=60
        )
        assert proc.returncode == 0
        row = read(out).splitlines()[-1].split(",")
        m, margin = int(row[3]), float(row[5])
        assert 10**152 < m < 10**154 and margin > 0

    def test_bad_parameter_is_usage(self, tmp_path):
        assert run(
            ["pair", "--system", "tent", "--param", "3.0",
             "--out", str(tmp_path / "x.csv")]
        ) == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["forge", "--q", "2,x"], "2,x"),
            (["entropy", "--q", "2,2,"], "2,2,"),
            (["pair", "--system", "odometer", "--base", "2,,4"], "2,,4"),
            (["pair", "--probs", "0.5,x"], "0.5,x"),
            (["pipka", "--eta", "0.5", "--h", "1", "--card", "2", "--eps-grid", "0.1,x"], "0.1,x"),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else None,
    )
    def test_malformed_list_is_usage(self, argv, text, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and repr(text) in err
        assert not out.exists()

    def test_malformed_config_list_is_usage(self, tmp_path, capsys):
        # the parser reads the list, so the message names the file
        cfg = tmp_path / "q.cfg"
        cfg.write_text("run.q = x\n")
        out = tmp_path / "f.csv"
        assert run(["forge", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: {cfg}: argument --q: 'x' is not a comma-separated list of ints\n"
        )
        assert not out.exists()

    def test_help_returns_zero(self, capsys):
        assert run(["pair", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: chaoslab pair")


class TestConfig:
    def test_empty_file_all_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing here\n\n")
        assert load_config(cfg) == {}

    def test_override(self, tmp_path):
        # the value stays text, keyed by its flag's dest: the parser casts it
        cfg = tmp_path / "t.cfg"
        cfg.write_text("thresholds.tau_one = 0.1\n")
        assert load_config(cfg) == {"tau_one": "0.1"}

    def test_malformed_line_names_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line, message in (
            ("foo ==", "expected a single 'key = value'"),
            ("run.seed =", "malformed 'key = value' line"),  # an empty value
        ):
            cfg.write_text(line + "\n")
            with pytest.raises(UsageError, match=f":1: {message}$"):
                load_config(cfg)

    def test_unknown_key_suggests(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("thresholds.tau_on = 0.1\n")
        with pytest.raises(UsageError, match="thresholds.tau_one"):
            load_config(cfg)

    def test_cli_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("run.horizon = 500\nrun.seed = 9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["pair", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(
            ["pair", "--config", str(cfg), "--horizon", "300", "--out", str(out2)]
        ) == 0
        assert len(read(out1).splitlines()) > len(read(out2).splitlines())

    @pytest.mark.parametrize("argv", [["forge"], ["entropy", "--empirical", "--horizon", "500"]])
    def test_config_q_reaches_forge_and_entropy(self, argv, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("run.q = 2,3,2\n")
        outs = {}
        for name, extra in {
            "file": ["--config", str(cfg)],
            "flag": ["--q", "2,3,2"],
            "flag-over-file": ["--config", str(cfg), "--q", "2,2,2"],
            "default": [],
        }.items():
            outs[name] = tmp_path / f"{name}.csv"
            assert run(argv + extra + ["--out", str(outs[name])]) == 0
        assert "# q = 2,3,2" in read(outs["file"])
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        assert "# q = 2,2,2" in read(outs["default"])
        assert outs["flag-over-file"].read_bytes() == outs["default"].read_bytes()

    def test_config_q_and_seed_reach_verify(self, tmp_path, monkeypatch):
        calls = []
        fiber_pair = c.blocks.fiber_pair

        def recording(schedule, seeds, **kwargs):
            calls.append((schedule.q, seeds))
            return fiber_pair(schedule, seeds, **kwargs)

        monkeypatch.setattr(c.blocks, "fiber_pair", recording)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("run.q = 2,3,2\nrun.seed = 7\n")
        argv = ["verify", "--suite", "scheme", "--pairs", "1"]
        assert run(argv + ["--config", str(cfg)]) == 0
        assert run(argv + ["--config", str(cfg), "--seed", "0"]) == 0
        assert calls == [((2, 3, 2), (8, 9)), ((2, 3, 2), (1, 2))]

    @pytest.mark.parametrize(
        "line, argv, message",
        [
            ("run.format = pdf", ["phi", "--horizon", "300"], "argument --format: invalid choice"),
            ("run.metric = bogus", ["phi", "--horizon", "300"], "argument --metric: invalid choice"),
            ("run.horizon = abc", ["pair"], "argument --horizon: expected a positive integer"),
            ("run.seed = -1", ["pair"], "argument --seed: expected a non-negative integer"),
            ("run.horizon = 0", ["pair"], "argument --horizon: expected a positive integer"),
            ("run.horizon = 0", ["entropy", "--empirical"],
             "argument --horizon: expected a positive integer"),
        ],
        ids=["format-pdf", "metric-bogus", "horizon-abc", "seed-negative", "horizon-zero",
             "entropy-horizon-zero"],
    )
    def test_bad_value_names_the_file(self, line, argv, message, tmp_path, monkeypatch, capsys):
        # a file value gets its flag's type and choices checks
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {cfg}: {message}")
        assert list(work.iterdir()) == []

    def test_negative_grid_value_reaches_the_range_check(self, tmp_path, capsys):
        # passed as --q=-2,2, not read as an option with no value
        cfg = tmp_path / "q.cfg"
        cfg.write_text("run.q = -2,2\n")
        out = tmp_path / "f.csv"
        assert run(["forge", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: every q_k must be >= 2\n"
        assert not out.exists()

    def test_key_without_flag_is_ignored(self, tmp_path):
        # pair has no --metric, --format or threshold flags
        cfg = tmp_path / "other.cfg"
        cfg.write_text("run.metric = cantor\nrun.format = svg\nthresholds.gap = 0.3\n")
        outs = [tmp_path / "file.csv", tmp_path / "none.csv"]
        assert run(["pair", "--horizon", "300", "--config", str(cfg), "--out", str(outs[0])]) == 0
        assert run(["pair", "--horizon", "300", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestBurnInRefusedBeforeSampling:
    """--burn-in is a size: a value below 1 is refused by the parser, so no
    orbit is sampled first."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        sample_orbit = c.systems.sample_orbit

        def recording(*args, **kwargs):
            calls.append(args)
            return sample_orbit(*args, **kwargs)

        monkeypatch.setattr(c.systems, "sample_orbit", recording)
        return calls

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["classify", "phi", "scan"])
    def test_flag(self, command, value, sampled, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [command, "--horizon", "200000", "--burn-in", value, "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument --burn-in: expected a positive integer, got '{value}'\n"
        )
        assert sampled == [] and not out.exists()

    def test_config_file(self, sampled, tmp_path, capsys):
        cfg = tmp_path / "burn.cfg"
        cfg.write_text("thresholds.burn_in = 0\n")
        out = tmp_path / "out.csv"
        assert run(["classify", "--horizon", "200000", "--config", str(cfg),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: {cfg}: argument --burn-in: expected a positive integer, got '0'\n"
        )
        assert sampled == [] and not out.exists()


class TestZeroSizesRefused:
    """An explicit 0 is a value, not a request for the default: each command
    refuses it, and a negative seed, with exit code 1 and writes nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "--horizon", "0"],
            ["pair", "--witness", "DC3", "--horizon", "0"],
            ["phi", "--horizon", "0"],
            ["classify", "--horizon", "0"],
            ["scan", "--horizon", "0"],
            ["forge", "--dump", "blocks", "--level", "0"],
            ["entropy", "--empirical", "--horizon", "0"],
            ["entropy", "--empirical", "--horizon", "-5"],
            ["scan", "--count", "0"],
            ["scan", "--count", "-1"],
            ["verify", "--suite", "scheme", "--pairs", "0"],
            ["verify", "--suite", "scheme", "--pairs", "-1"],
            ["classify", "--depth", "0"],
            ["pair", "--seed", "-3"],
            ["pair", "--seed2", "-1"],
            ["phi", "--seed", "-1"],
            ["classify", "--seed", "-3"],
            ["scan", "--seed", "-3"],
            ["forge", "--dump", "point", "--seed", "-3"],
            ["entropy", "--empirical", "--seed", "-3"],
            ["verify", "--suite", "scheme", "--seed", "-1"],
            ["verify", "--suite", "percentage", "--seed", "-1"],
        ],
        ids="_".join,
    )
    def test_flag(self, argv, tmp_path, monkeypatch, capsys):
        # the last flag of each argv is the refused input, and the one line of
        # stderr names it; verify writes no artifact and has no --out
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.csv"
        assert run(argv if argv[0] == "verify" else argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and argv[-2].lstrip("-") in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["pair"], ["scan"], ["entropy", "--empirical"]])
    def test_config_file(self, argv, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("run.horizon = 0\n")
        out = tmp_path / "out.csv"
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


class TestWarnings:
    def test_same_stderr_on_every_run_without_a_path(self, tmp_path, capsys):
        argv = ["entropy", "--q", "2,2,2", "--empirical", "--horizon", "5000",
                "--out", str(tmp_path / "e.csv")]
        errs = []
        for _ in range(2):
            assert run(argv) == 0
            errs.append(capsys.readouterr().err)
        line = "warning: UndersampledWarning: horizon 5000 undersamples 2^8 words\n"
        assert errs == [line * 2, line * 2]


class TestText:
    """The one text rule of every header value and CSV cell."""

    def test_none_tuple_and_scalars(self):
        assert _text(None) == ""
        assert _text((2, 3, 2)) == "2,3,2"
        assert _text(("markers", 1, 0)) == "markers,1,0"
        assert _text(0.1) == "0.1" and _text(1e-05) == "1e-05"
        assert _text(Fraction(1, 8)) == "1/8"
        assert _text(True) == "True" and _text("marker-block") == "marker-block"

    @pytest.mark.parametrize("value", [0.1, 1e-05, 2.0**-1074, math.inf, -7, 2**62, True, False])
    def test_numpy_scalars_read_as_python_values(self, value):
        numpy_type = {bool: np.bool_, int: np.int64, float: np.float64}[type(value)]
        assert _text(numpy_type(value)) == _text(value)


class TestArtifacts:
    def test_count_ball_ratio_exact_at_any_n(self, tmp_path):
        # m = 1 and eta = 0.001 leave masks of at most one set bit: 1 + n of
        # them. 2.0**1030 overflows; the int division still writes the
        # nearest float to count / 2^n
        out = tmp_path / "ball.csv"
        argv = ["count-ball", "--n", "1030", "--m", "1", "--eta", "0.001", "--out", str(out)]
        assert run(argv) == 0
        row = read(out).splitlines()[-1].split(",")
        assert row[5] == "1031"
        assert row[7] == repr(1031 / 2**1030) == "8.961137297347362e-308"
        assert float(row[7]) == float(Fraction(1031, 2**1030))

    def test_pipka_row(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(
            ["pipka", "--eta", "0.81", "--h", "1", "--card", "2", "--out", str(out)]
        ) == 0
        text = read(out)
        assert "eta,h,card,m,eps,margin,feasible" in text
        row = text.strip().splitlines()[-1].split(",")
        assert row[3] == "15" and row[4] == "0.005"
        assert float(row[5]) > 0

    def test_pipka_margin_tie_moves_to_the_next_m(self, tmp_path):
        # at m = 8 the left side 2/8 + 0.30 is exactly the right side 0.55,
        # though 0.55 - 0.30 rounds above 2/8: the row is m = 9
        out = tmp_path / "p.csv"
        argv = ["pipka", "--eta", "0.25", "--h", "1.1", "--card", "3", "--eps-grid", "0.03"]
        assert run(argv + ["--out", str(out)]) == 0
        row = read(out).splitlines()[-1].split(",")
        assert row[3:5] == ["9", "0.03"] and float(row[5]) > 0

    def test_csv_reproducible_byte_identical(self, tmp_path):
        for name, argv in {
            "phi": ["phi", "--witness", "DC3", "--horizon", "16382"],
            "pipka": ["pipka", "--eta", "0.5", "--h", "1", "--card", "2"],
            "forge": ["forge", "--q", "2,2,2", "--dump", "params"],
            "classify": ["classify", "--seed", "3", "--horizon", "4000"],
        }.items():
            out1 = tmp_path / f"{name}1.csv"
            out2 = tmp_path / f"{name}2.csv"
            assert run(argv + ["--out", str(out1)]) == 0
            assert run(argv + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_header_embeds_config(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(
            ["classify", "--witness", "DC1", "--horizon", "7776",
             "--tau-one", "0.25", "--tau-zero", "0.25", "--out", str(out)]
        ) == 0
        text = read(out)
        assert text.startswith("# chaoslab classify")
        assert "# witness = DC1" in text
        row = text.strip().splitlines()[-1].split(",")
        header = [l for l in text.splitlines() if l.startswith("pair_id")][0]
        assert header == "pair_id,ly,dc1,dc1half,dc2,dc3,s,eta,k0"
        assert row[1] == "True" and row[2] == "True"

    def test_no_input_mutation(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("run.horizon = 400\n")
        before = cfg.read_bytes()
        assert run(["pair", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert cfg.read_bytes() == before

    def test_scan_clique_csv(self, tmp_path):
        out = tmp_path / "clique.csv"
        assert run(
            ["scan", "--count", "4", "--horizon", "2000", "--seed", "1",
             "--target", "li_yorke", "--out", str(out)]
        ) == 0
        lines = [l for l in read(out).splitlines() if not l.startswith("#")]
        assert lines[0] == "trajectory_id"
        assert [int(x) for x in lines[1:]] == [0, 1, 2, 3]

    @pytest.mark.parametrize("allow_empty, rows", [(False, ["0"]), (True, [])])
    def test_scan_single_trajectory_is_a_clique_of_one(self, allow_empty, rows, tmp_path):
        # one trajectory has no pairs; three constant ones have no edges
        out = tmp_path / "clique.csv"
        for count in (["--count", "1"], ["--count", "3", "--probs", "1,0"]):
            argv = ["scan", *count, "--horizon", "500", "--out", str(out)]
            assert run(argv + ["--allow-empty"] * allow_empty) == 0
            lines = [l for l in read(out).splitlines() if not l.startswith("#")]
            assert lines == ["trajectory_id", *rows]

    @pytest.mark.parametrize("word_len", ["64", "70"])
    def test_entropy_word_codes_beyond_int64_refused(self, word_len, tmp_path, capsys):
        out = tmp_path / "entropy.csv"
        argv = ["entropy", "--empirical", "--horizon", "2000", "--word-len", word_len]
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "int64" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_forge_blocks_dump(self, tmp_path):
        out = tmp_path / "blocks.txt"
        assert run(["forge", "--q", "2,2", "--dump", "blocks", "--out", str(out)]) == 0
        rows = [l for l in read(out).splitlines() if not l.startswith("#")]
        assert len(rows) == 16 and all(len(r) == 16 for r in rows)
        assert rows[0] == "0" * 16

    def test_absolute_metric_on_interval_map(self, tmp_path):
        out = tmp_path / "phi-abs.csv"
        assert run(
            ["phi", "--system", "logistic", "--param", "3.9", "--horizon", "5000",
             "--seed", "1", "--seed2", "2", "--metric", "absolute",
             "--out", str(out)]
        ) == 0
        assert "phi_star" in read(out)

    def test_entropy_empirical(self, tmp_path):
        out = tmp_path / "ent.csv"
        assert run(
            ["entropy", "--q", "2,2,2", "--empirical", "--horizon", "20000",
             "--seed", "5", "--word-len", "8", "--stride", "8", "--out", str(out)]
        ) == 0
        rows = [l.split(",") for l in read(out).splitlines() if not l.startswith("#")]
        values = {r[0]: float(r[4]) for r in rows[1:]}
        assert values["marker-block"] < values["iid-fair-bits"]


class TestScanHoldsWhatItReads:
    """Under a symbolic metric `scan` keeps symbol tracks only, and each pair,
    with the agreement plane it caches, lives only while it is read."""

    TENT = ["scan", "--system", "tent", "--param", "1.99", "--seed", "3"]

    def test_symbolic_scan_peaks_below_the_real_tracks(self, tmp_path):
        # 16 real tracks of 20000 float64s, which no Cantor read touches
        argv = self.TENT + ["--count", "16", "--horizon", "20000", "--metric", "cantor"]
        tracemalloc.start()
        try:
            assert run(argv + ["--out", str(tmp_path / "clique.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 20000 * 8

    @pytest.mark.parametrize("metric", ["cantor", "hamming-indicator", "absolute"])
    def test_pairs_hold_the_tracks_their_metric_reads(self, metric, tmp_path, monkeypatch):
        scan, count = c.classify.scan_scrambled_set, 5
        read = []  # weak references to each pair read and to its agreement plane
        handed = []

        def spy(pairs, is_scrambled):
            def checked(pair):
                # every pair read before this one is gone, with its plane
                assert all(ref() is None for refs in read for ref in refs)
                verdict = is_scrambled(pair)
                for t in (pair.a, pair.b):
                    assert (t.reals is None) == (metric != "absolute")
                    assert t.symbols is not None
                plane = vars(pair).get("agreement")
                assert (plane is None) == (metric == "absolute")
                read.append([weakref.ref(pair)])
                if plane is not None:
                    read[-1].append(weakref.ref(plane))
                return verdict

            handed.append(pairs)
            assert len(pairs) == count * (count - 1) // 2
            return scan(pairs, checked)

        monkeypatch.setattr(c.classify, "scan_scrambled_set", spy)
        argv = self.TENT + ["--count", str(count), "--horizon", "2000", "--metric", metric]
        assert run(argv + ["--out", str(tmp_path / "clique.csv")]) == 0
        assert len(read) == len(handed[0]) and all(ref() is None for refs in read for ref in refs)
        # the trajectories the pairs are built from cache nothing
        fields = {"spec", "horizon", "symbols", "reals", "source"}
        assert all(set(vars(t)) == fields for pair in handed[0].values() for t in (pair.a, pair.b))

    @pytest.mark.parametrize("count", ["1", "16"])
    @pytest.mark.parametrize("system", [
        ["--system", "full-shift"],
        ["--system", "odometer", "--base", "2,4"],
        ["--system", "zero-entropy", "--q", "2,2,2"],
    ])
    def test_absolute_without_real_tracks_refused_on_the_first_draw(
        self, system, count, tmp_path, monkeypatch, capsys
    ):
        sample, calls = c.systems.sample_orbit, []

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(c.systems, "sample_orbit", counted)
        out = tmp_path / "clique.csv"
        argv = ["scan", *system, "--metric", "absolute", "--count", count, "--horizon", "5000"]
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: absolute needs real tracks\n"
        assert len(calls) == 1 and not out.exists()


class TestVerifySuites:
    @pytest.mark.parametrize(
        "suite", ["params", "pi-bijection", "percentage", "entropy-zero", "scheme"]
    )
    def test_suites_pass(self, suite, capsys):
        assert run(["verify", "--suite", suite, "--q", "2,2,2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_pi_bijection_catches_a_broken_inverse(self, monkeypatch, capsys):
        encode = c.blocks.encode_block

        def broken(schedule, k, words):
            out = encode(schedule, k, words)
            out[-1] = out[0]
            return out

        # the family is built before the break, so only the read-back differs
        family = c.enumerate_family(c.QSchedule((2, 2, 2)), 3)
        monkeypatch.setattr(c.blocks, "enumerate_family", lambda schedule, k: family)
        monkeypatch.setattr(c.blocks, "encode_block", broken)
        assert run(["verify", "--suite", "pi-bijection", "--q", "2,2,2"]) == 2
        assert "encode_block(pi(C)) != C" in capsys.readouterr().err

    def test_pi_bijection_catches_repeated_words(self, monkeypatch, capsys):
        decode = c.blocks.pi

        def repeating(schedule, k, blocks):
            words = decode(schedule, k, blocks)
            words[-1] = words[0]
            return words

        # with encode_block reading the family back, only distinctness can fail
        family = c.enumerate_family(c.QSchedule((2, 2, 2)), 3)
        monkeypatch.setattr(c.blocks, "pi", repeating)
        monkeypatch.setattr(c.blocks, "encode_block", lambda schedule, k, words: family)
        assert run(["verify", "--suite", "pi-bijection", "--q", "2,2,2"]) == 2
        assert "not injective" in capsys.readouterr().err

    def test_percentage_catches_a_changed_fraction(self, monkeypatch, capsys):
        # interleaving the p_1 = 2 bit groups of each word keeps every entry
        # count and breaks the component counts
        decode = c.blocks.pi
        perm = [0, 2, 4, 6, 1, 3, 5, 7]
        monkeypatch.setattr(
            c.blocks, "pi", lambda schedule, k, blocks: decode(schedule, k, blocks)[..., perm]
        )
        assert run(["verify", "--suite", "percentage", "--q", "2,2,2"]) == 2
        assert "component percentage not preserved" in capsys.readouterr().err

    def test_percentage_catches_a_changed_entry_count(self, monkeypatch, capsys):
        decode = c.blocks.pi

        def zero_first_bit(schedule, k, blocks):
            words = decode(schedule, k, blocks)
            words[..., 0] = 0
            return words

        monkeypatch.setattr(c.blocks, "pi", zero_first_bit)
        assert run(["verify", "--suite", "percentage", "--q", "2,2,2"]) == 2
        assert "entry-level percentage not preserved" in capsys.readouterr().err

    def test_scheme_catches_a_mask_changing_inside_a_window(self, monkeypatch, capsys):
        # the same mask at every depth nests, so only the window check can fail
        def alternating(schedule):
            def same_atom_mask(pair, k):
                return c.pack_times(np.arange(pair.horizon) % 2 == 0)

            return c.PartitionScheme(schedule.depth, same_atom_mask, "alternating")

        monkeypatch.setattr(c.blocks, "central_block_scheme", alternating)
        assert run(["verify", "--suite", "scheme", "--q", "2,2,2"]) == 2
        assert "shift-window property fails" in capsys.readouterr().err

    def test_scheme_catches_a_depth_outside_the_one_before(self, monkeypatch, capsys):
        # depth 1 holds nowhere, deeper depths everywhere: each mask is
        # constant, so only the refinement check can fail
        def unnested(schedule):
            def same_atom_mask(pair, k):
                return c.pack_times(np.full(pair.horizon, k > 1))

            return c.PartitionScheme(schedule.depth, same_atom_mask, "unnested")

        monkeypatch.setattr(c.blocks, "central_block_scheme", unnested)
        assert run(["verify", "--suite", "scheme", "--q", "2,2,2"]) == 2
        assert "refinement fails" in capsys.readouterr().err


# each config key -> a run that takes its flag, and a value that changes
# that run's output (the witness pairs make the thresholds move the verdict)
KEY_RUNS = {
    "thresholds.tau_one": (["classify", "--witness", "DC1", "--horizon", "7776"], "0.25"),
    "thresholds.tau_zero": (
        ["classify", "--witness", "DC1", "--horizon", "7776", "--tau-one", "0.25"], "0.2"
    ),
    "thresholds.eta_min": (["classify", "--witness", "DC2", "--horizon", "7776"], "0.3"),
    "thresholds.gap": (["classify", "--witness", "DC2", "--horizon", "7776"], "0.3"),
    "thresholds.burn_in": (["classify", "--witness", "DC3", "--horizon", "7776"], "40"),
    "run.horizon": (["pair", "--seed", "3"], "300"),
    "run.seed": (["pair", "--horizon", "300"], "5"),
    "run.seed2": (["pair", "--horizon", "300"], "9"),
    "run.metric": (["phi", "--horizon", "300"], "cantor"),
    "run.q": (["forge"], "2,3"),
    "run.out": (["pair", "--horizon", "300"], "somewhere.csv"),
    "run.format": (["phi", "--horizon", "300"], "svg"),
}


class TestConfigKeys:
    def test_every_registered_key_round_trips(self, tmp_path):
        from chaoslab.cli import CONFIG_KEYS

        assert set(KEY_RUNS) == set(CONFIG_KEYS)
        cfg = tmp_path / "full.cfg"
        cfg.write_text("".join(f"{k} = {value}\n" for k, (_, value) in KEY_RUNS.items()))
        assert load_config(cfg) == {
            k.rsplit(".", 1)[1]: value for k, (_, value) in KEY_RUNS.items()
        }

    @pytest.mark.parametrize("key", list(KEY_RUNS))
    def test_file_value_writes_the_flag_bytes(self, key, tmp_path, monkeypatch):
        argv, value = KEY_RUNS[key]
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = "--" + key.rsplit(".", 1)[1].replace("_", "-")

        def written(name, extra):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run(argv + extra) == 0
            return {p.name: p.read_bytes() for p in Path.cwd().iterdir()}

        from_file = written("file", ["--config", str(cfg)])
        assert from_file == written("flag", [flag, value])
        assert from_file != written("default", [])


def _polyline_ys(text):
    import re

    out = []
    for match in re.findall(r'points="([^"]+)"', text):
        out.append([float(p.split(",")[1]) for p in match.split()])
    return out


class TestSvg:
    def test_witness_profile_curves_visibly_separated(self):
        # the doubling witness has a 1/3 gap between the curves at every
        # threshold: about a third of the plot height apart
        pair = c.construct_witness_pair("DC3", 4**10)
        prof = c.phi_profile(c.distance_series(pair))
        star_ys, lower_ys = _polyline_ys(render_phi_svg(prof))
        plot_height = 420 - 30 - 50
        gaps = [(l - s) / plot_height for s, l in zip(star_ys, lower_ys)]
        assert all(abs(g - 1 / 3) < 0.05 for g in gaps)

    def test_deterministic_bytes(self):
        pair = c.construct_witness_pair("DC3", 16382)
        prof = c.phi_profile(c.distance_series(pair))
        text = render_phi_svg(prof)
        assert render_phi_svg(prof) == text
        assert text.startswith("<?xml") and "<svg" in text and "polyline" in text

    def test_flat_profile_two_lines_at_one(self):
        d = c.DistanceSeries.from_values(np.zeros(1000))
        prof = c.phi_profile(d, 10)
        text = render_phi_svg(prof)
        assert text.count("polyline") == 2

    def test_svg_via_cli_format_flag(self, tmp_path):
        out = tmp_path / "phi.svg"
        assert run(
            ["phi", "--witness", "DC3", "--horizon", "16382", "--format", "svg",
             "--out", str(out)]
        ) == 0
        assert read(out).startswith("<?xml")


class TestAtomicWrite:
    def test_stray_tmp_file_left_untouched(self, tmp_path):
        out = tmp_path / "verdict.csv"
        stray = tmp_path / "verdict.csv.tmp"
        stray.write_text("another writer's temp file\n")
        atomic_write(out, "a,b\n1,2\n")
        assert out.read_text() == "a,b\n1,2\n"
        assert stray.read_text() == "another writer's temp file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["verdict.csv", "verdict.csv.tmp"]

    def test_mode_is_that_of_a_plain_write(self, tmp_path):
        umask = os.umask(0o027)
        try:
            atomic_write(tmp_path / "out.csv", "x\n")
        finally:
            os.umask(umask)
        assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o640

    def test_failed_write_leaves_no_temp_and_old_file(self, tmp_path):
        out = tmp_path / "verdict.csv"
        out.write_text("old artifact\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(out, "half written \ud800 text\n")  # a lone surrogate
        assert out.read_text() == "old artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["verdict.csv"]

    def test_failed_stream_leaves_no_temp_and_old_file(self, tmp_path):
        out = tmp_path / "pair.csv"
        out.write_text("old artifact\n")

        def chunks():
            yield "n,x_symbol,y_symbol\n"
            raise RuntimeError("formatting failed mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            atomic_write(out, chunks())
        assert out.read_text() == "old artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["pair.csv"]

    def test_chunks_write_the_same_file_as_one_string(self, tmp_path):
        text = "# chaoslab pair \u03c6\nn,x\n" + "".join(f"{i},{i % 3}\n" for i in range(2000))
        atomic_write(tmp_path / "whole.csv", text)
        atomic_write(tmp_path / "chunked.csv", (text[i : i + 37] for i in range(0, len(text), 37)))
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


PAIR_CASES = {
    "full-shift-2": ["--horizon", "3000", "--seed", "4"],
    "weighted-3": ["--arity", "3", "--probs", "0.5,0.3,0.2", "--horizon", "3000", "--seed", "7"],
    "tent-reals": ["--system", "tent", "--param", "1.99", "--horizon", "3000", "--seed", "2"],
    "witness": ["--witness", "DC2", "--horizon", "5000"],
    "odometer": ["--system", "odometer", "--base", "2,4,12", "--horizon", "3000"],
    "zero-entropy": ["--system", "zero-entropy", "--q", "2,2,2", "--horizon", "3000"],
    "full-shift-12": ["--arity", "12", "--horizon", "3000", "--seed", "5"],
    "logistic-depth-4": ["--system", "logistic", "--param", "3.9", "--coding-depth", "4",
                         "--horizon", "3000", "--seed", "4"],
}


def assert_pair_matches_oracle(case, out):
    argv = ["pair", *PAIR_CASES[case], "--out", str(out)]
    assert run(argv) == 0
    args = build_parser().parse_args(argv)
    expected = csv_text_direct(_header(args, PAIR_KEYS), *pair_dump_direct(_build_pair(args)))
    assert out.read_bytes() == expected.encode()


def hand_built_pair(spec, x, y, track="symbols"):
    a, b = (c.Trajectory(spec, len(t), **{track: np.asarray(t)}) for t in (x, y))
    return c.OrbitPair(a, b)


class TestPairDump:
    """`pair` formats its integer cells as byte blocks; its bytes must
    equal one `str` per cell in a per-row loop (the oracle)."""

    @pytest.mark.parametrize("case", sorted(PAIR_CASES))
    def test_cli_matches_per_row_oracle(self, case, tmp_path):
        assert_pair_matches_oracle(case, tmp_path / "pair.csv")

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_boundaries_do_not_change_bytes(self, block, tmp_path, monkeypatch):
        # 3000 rows: a single-row block, a ragged last block, exact blocks
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        assert_pair_matches_oracle("tent-reals", tmp_path / "pair.csv")

    @pytest.mark.parametrize(
        "pair",
        [
            # 13-digit symbols beside a 1-digit track: the cells above 2^32
            # split off their low nine digits
            hand_built_pair(c.IntervalMap("tent", 1.5, coding_depth=41),
                            [0, 10**12, 2**41 - 1], [1, 1, 1]),
            # reals without a symbol track: blank symbol cells
            hand_built_pair(c.IntervalMap("tent", 1.5), [0.1, 1 / 3, 0.75], [2**-40, 0.5, 1.0],
                            track="reals"),
            # rows 6 and 7 of 10, inside the second block, hold cells only repr
            # writes (a tie, exponent notation, 0.0, 1.0) between digit cells
            hand_built_pair(
                c.IntervalMap("tent", 1.99),
                [0.3, 0.7, 0.123, 0.99, 0.5001, 0.59879302978515625, 4.366151316184339e-06,
                 0.25000000000000006, 0.0001, 0.6],
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 1.0, 0.9999999999999999, 0.875, 0.02],
                track="reals",
            ),
        ],
        ids=["sparse", "reals-only", "repr-cells-mid-block"],
    )
    def test_hand_built_pairs_match_oracle(self, pair, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
        lines = ["# chaoslab pair", f"# horizon = {pair.horizon}"]
        atomic_write(tmp_path / "pair.csv", _pair_chunks(lines, pair))
        expected = csv_text_direct(lines, *pair_dump_direct(pair))
        assert (tmp_path / "pair.csv").read_bytes() == expected.encode()


def shortest_cells(values):
    """Each float of `values` as `_shortest_decimals` has the writer put it,
    and the mask of the cells it leaves to `repr`."""
    values = np.asarray(values, np.float64)
    digits, places, other = cli._shortest_decimals(values)
    cells = [
        repr(v) if o else "0." + str(d).zfill(p)
        for v, d, p, o in zip(values.tolist(), digits.tolist(), places.tolist(), other.tolist())
    ]
    return cells, other


def left_to_repr(value: float) -> bool:
    """The oracle of the fallback: outside [1e-4, 1), a power of two, or an
    exact tie at the places `repr` writes."""
    if not 1e-4 <= value < 1 or math.frexp(value)[0] == 0.5:
        return True
    places = len(repr(value)) - 2
    scaled = Fraction(value) * 10**places
    return scaled - math.floor(scaled) == Fraction(1, 2)


def nextafter_walk(start, steps):
    below = above = np.float64(start)
    out = [below]
    for _ in range(steps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
        out += [below, above]
    return out


RNG = np.random.default_rng(20260)
SHORTEST_CASES = {
    "uniform": RNG.random(20000),
    "tent-1.99": c.sample_orbit(c.IntervalMap("tent", 1.99), 20000, 3).reals,
    "logistic-4": c.sample_orbit(c.IntervalMap("logistic", 4.0), 20000, 1).reals,
    # short dyadics: exact decimals, some of them ties at their shortest length
    "dyadics": np.concatenate([RNG.integers(1, 2**b, 2000) / 2.0**b for b in (3, 8, 17, 20, 30)]
                              + [[0.59879302978515625, 0.375, 0.5 + 2.0**-53]]),
    "near-powers-of-ten": np.concatenate([nextafter_walk(10.0**-j, 200) for j in range(5)]),
    "near-1e-4": nextafter_walk(1e-4, 500) + list(RNG.uniform(1e-4, 1.2e-4, 2000)),
    "near-powers-of-two": np.concatenate([nextafter_walk(2.0**-e, 50) for e in range(1, 15)]),
    # d significant digits after 0 to 3 zeros
    "short-decimals": np.concatenate([
        RNG.integers(1, 10**d, 500) / 10.0 ** (d + RNG.integers(0, 4, 500)) for d in range(1, 18)
    ]),
    "fallback": [0.0, -0.0, 1.0, 1.5, 2.0**-1074, 1e-310, 2.0**-1022, 9.999999999999999e-05,
                 -0.25, -0.3, 1e300, math.inf, -math.inf, math.nan],
}


class TestShortestDecimals:
    """The real cells of a pair dump against `repr`, the oracle."""

    @pytest.mark.parametrize("case", list(SHORTEST_CASES))
    def test_matches_repr(self, case):
        values = np.asarray(SHORTEST_CASES[case], np.float64)
        cells, other = shortest_cells(values)
        assert cells == [repr(v) for v in values.tolist()]
        # and only the documented cells are left to repr
        assert other.tolist() == [left_to_repr(v) for v in values.tolist()]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, np.uint64).view(np.float64)
        assert shortest_cells(values)[0] == [repr(v) for v in values.tolist()]

    @given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_value_in_range(self, values):
        cells, other = shortest_cells(values)
        assert cells == [repr(v) for v in values]
        assert other.tolist() == [left_to_repr(v) for v in values]


class TestForgeBlocksGolden:
    # sha256 of `forge --q 2,3,2 --dump blocks [--markers]` as written by the
    # per-bit formatting loop the column formatting replaced
    GOLDEN = {
        False: "8920746a782fb3acba4d498322ac8af8da497b27280d873868c6b5766766273d",
        True: "5afb06debe31baf261c96b7ac34828a7f22448a2026b9710a1516e7c31b0e3c8",
    }

    @pytest.mark.parametrize("markers", [False, True])
    def test_bytes_match_golden(self, markers, tmp_path):
        out = tmp_path / "blocks.txt"
        argv = ["forge", "--q", "2,3,2", "--dump", "blocks", "--out", str(out)]
        assert run(argv + (["--markers"] if markers else [])) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[markers]
        rows = [l for l in read(out).splitlines() if not l.startswith("#")]
        assert len(rows) == 4096
        assert all((" " in r) == markers for r in rows)


# flags that another subcommand takes but this one does not read, or that no
# subcommand takes any more: each must be refused, never accepted and ignored
REMOVED_FLAGS = {
    "pair": ["--tau-one", "--tau-zero", "--eta-min", "--gap", "--eta-grid", "--burn-in",
             "--metric", "--depth", "--format"],
    "phi": ["--tau-one", "--tau-zero", "--eta-min", "--gap", "--eta-grid", "--depth"],
    "scan": ["--witness", "--seed2", "--depth", "--format", "--eta-grid"],
    "classify": ["--format", "--eta-grid"],
    "forge": ["--format"],
    "entropy": ["--format"],
    "pipka": ["--format"],
    "count-ball": ["--format"],
    "verify": ["--format", "--out"],
}
REMOVED_VALUES = {
    "--tau-one": "0.3", "--tau-zero": "0.3", "--eta-min": "0.1", "--gap": "0.2",
    "--eta-grid": "0.5", "--burn-in": "5", "--metric": "cantor", "--depth": "7",
    "--format": "svg", "--witness": "DC1", "--seed2": "77", "--out": "artifact.txt",
}
VALID_ARGV = {
    "pair": ["--horizon", "300"],
    "phi": ["--horizon", "300"],
    "scan": ["--count", "3", "--horizon", "500"],
    "classify": ["--horizon", "500"],
    "forge": [],
    "entropy": [],
    "pipka": ["--eta", "0.81", "--h", "1", "--card", "2"],
    "count-ball": ["--n", "8", "--m", "2", "--eta", "0.5"],
    "verify": ["--suite", "params"],
}


class TestParserSurface:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags],
    )
    def test_removed_flag_is_usage(self, command, flag, tmp_path, monkeypatch, capsys):
        # the whole message names only the flag: the rest of the argv is valid
        monkeypatch.chdir(tmp_path)
        assert run([command, *VALID_ARGV[command], flag, REMOVED_VALUES[flag]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: unrecognized arguments: {flag} {REMOVED_VALUES[flag]}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """`run` shares one parser per process: a mixed sequence of runs gives
    the same exit codes, output and artifact bytes as each argv run alone
    on a freshly built parser."""

    def test_cached(self):
        assert build_parser() is build_parser()

    def test_mixed_sequence_matches_fresh_parser(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("thresholds.tau_one = 0.3\nrun.horizon = 1500\nrun.seed = 9\n")
        sequence = [
            (["classify", "--config", str(cfg), "--out", "verdict-cfg.csv"], "verdict-cfg.csv"),
            (["classify", "--horizon", "2000", "--out", "verdict.csv"], "verdict.csv"),
            (["classify", "--bogus"], None),
            (["count-ball", "--n", "10", "--m", "3", "--eta", "0.5", "--out", "ball.csv"],
             "ball.csv"),
            (["entropy", "--empirical", "--horizon", "3000", "--word-len", "6",
              "--out", "entropy.csv"], "entropy.csv"),
            (["verify", "--suite", "params"], None),
            (["phi", "--witness", "DC3", "--horizon", "4096", "--format", "svg",
              "--out", "phi.svg"], "phi.svg"),
            (["scan", "--count", "3", "--horizon", "1000", "--out", "clique.csv"],
             "clique.csv"),
            (["classify", "--config", str(cfg), "--seed", "4", "--out", "verdict-cfg2.csv"],
             "verdict-cfg2.csv"),
        ]

        def outcome(argv, artifact):
            rc = run(argv)
            captured = capsys.readouterr()
            digest = None
            if artifact is not None:
                digest = hashlib.sha256(Path(artifact).read_bytes()).hexdigest()
            return rc, captured.out, captured.err, digest

        shared_dir, fresh_dir = tmp_path / "shared", tmp_path / "fresh"
        shared_dir.mkdir()
        fresh_dir.mkdir()
        monkeypatch.chdir(shared_dir)
        build_parser.cache_clear()
        shared = [outcome(argv, artifact) for argv, artifact in sequence]
        monkeypatch.chdir(fresh_dir)
        fresh = []
        for argv, artifact in sequence:
            build_parser.cache_clear()
            fresh.append(outcome(argv, artifact))
        assert [rc for rc, *_ in shared] == [0, 0, 1, 0, 0, 0, 0, 0, 0]
        assert shared == fresh


# --- run() over the parser's own argv space -----------------------------------

(_SUBPARSERS,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
# values for a flag without choices: small sizes and plain values, drawn as
# often as the edge values (signs, non-finite and extreme floats, empty and
# malformed text and lists), so that runs also get past the parser. The two
# flags whose work grows fastest with their value get one large size each
# (count-ball's DP is O(n m (n - m + 1))), and --q two schedules past the
# window and enumeration guards
PLAIN_VALUES = ["1", "2", "3", "7", "0.5", "2,2"]
EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e308", "", "x", "-2,2", "2,,2",
               "nan,1", "0.5,0.5"]
LARGE_SIZES = {"horizon": ["2000"], "n": ["64"], "q": ["64", ",".join(["2"] * 13)]}
CONFIG_KEY = {key.rsplit(".", 1)[1]: key for key in cli.CONFIG_KEYS}


@st.composite
def parser_argv(draw):
    """(subcommand, [(action, value)]): up to 5 of the subcommand's flags
    plus its required ones, each with one of its choices or a bogus one, or
    a plain or edge value; None for a flag that takes no value."""
    name = draw(st.sampled_from(sorted(_SUBPARSERS.choices)))
    actions = [a for a in _SUBPARSERS.choices[name]._actions
               if a.option_strings and a.dest not in ("help", "config", "out")]
    chosen = draw(st.lists(st.sampled_from(actions), max_size=5, unique=True))
    flags = []
    for action in [a for a in actions if a.required and a not in chosen] + chosen:
        if action.nargs == 0:
            flags.append((action, None))
        else:
            values = (st.sampled_from([*action.choices, "bogus"]) if action.choices
                      else st.sampled_from(PLAIN_VALUES + LARGE_SIZES.get(action.dest, []))
                      | st.sampled_from(EDGE_VALUES))
            flags.append((action, draw(values)))
    return name, flags


class TestRunNeverRaises:
    @given(parser_argv(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_and_one_error_line(self, case, through_config):
        # the same values go on the command line or, for flags with a config
        # key, through a --config file
        name, flags = case
        here = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            argv, lines = [name], []
            for action, value in flags:
                flag = action.option_strings[-1]
                if value is None:
                    argv.append(flag)
                elif through_config and action.dest in CONFIG_KEY:
                    lines.append(f"{CONFIG_KEY[action.dest]} = {value}\n")
                else:
                    argv.append(f"{flag}={value}")
            if lines:
                cfg = Path(work, "run.cfg")
                cfg.write_text("".join(lines))
                argv += ["--config", str(cfg)]
            err = io.StringIO()
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run(argv)
            finally:
                os.chdir(here)
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 1:
            errors = [l for l in err.getvalue().splitlines()
                      if l.startswith(("usage error:", "error:"))]
            assert len(errors) == 1, (argv, err.getvalue())
