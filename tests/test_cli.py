import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import chaoslab as c
from chaoslab import cli
from chaoslab.cli import (
    PAIR_KEYS,
    _build_pair,
    _header,
    _PairRows,
    atomic_write,
    build_parser,
    load_config,
    run,
    write_csv,
)
from chaoslab.errors import UsageError
from chaoslab.svgplot import render_phi_svg
from oracles import csv_text_direct, pair_dump_direct


def read(path):
    return Path(path).read_text()


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
            (["classify", "--horizon", "500", "--eta-grid", "0.5;0.7"], "0.5;0.7"),
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
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("thresholds.eta_grid = x\n")
        out = tmp_path / "v.csv"
        assert run(["classify", "--horizon", "500", "--config", str(cfg), "--out", str(out)]) == 1
        assert "usage error: 'x' is not" in capsys.readouterr().err
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
        cfg = tmp_path / "t.cfg"
        cfg.write_text("thresholds.tau_one = 0.1\n")
        assert load_config(cfg) == {"tau_one": 0.1}

    def test_malformed_line_names_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("foo ==\n")
        with pytest.raises(UsageError, match=r":1:"):
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


class TestZeroSizesRefused:
    """An explicit 0 is a value, not a request for the default: each command
    refuses it with exit code 1 and writes nothing."""

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
        ],
        ids="_".join,
    )
    def test_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

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


class TestArtifacts:
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
        out = tmp_path / "clique.csv"
        argv = ["scan", "--count", "1", "--horizon", "500", "--out", str(out)]
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

    def test_eta_grid_flag_parsed(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(
            ["classify", "--witness", "DC1", "--horizon", "7776",
             "--tau-one", "0.25", "--tau-zero", "0.25",
             "--eta-grid", "0.4,0.6", "--out", str(out)]
        ) == 0

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


class TestVerifySuites:
    @pytest.mark.parametrize(
        "suite", ["params", "pi-bijection", "percentage", "entropy-zero", "scheme"]
    )
    def test_suites_pass(self, suite, capsys):
        assert run(["verify", "--suite", suite, "--q", "2,2,2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_pi_bijection_catches_a_broken_inverse(self, monkeypatch, capsys):
        inverse = c.blocks.inverse_pi

        def broken(schedule, k, words):
            out = inverse(schedule, k, words)
            out[-1] = out[0]
            return out

        monkeypatch.setattr(c.blocks, "inverse_pi", broken)
        assert run(["verify", "--suite", "pi-bijection", "--q", "2,2,2"]) == 2
        assert "inverse_pi(pi(C)) != C" in capsys.readouterr().err

    def test_pi_bijection_catches_repeated_words(self, monkeypatch, capsys):
        decode = c.blocks.pi

        def repeating(schedule, k, blocks):
            words = decode(schedule, k, blocks)
            words[-1] = words[0]
            return words

        # with inverse_pi reading the family back, only distinctness can fail
        family = c.enumerate_family(c.QSchedule((2, 2, 2)), 3)
        monkeypatch.setattr(c.blocks, "pi", repeating)
        monkeypatch.setattr(c.blocks, "inverse_pi", lambda schedule, k, words: family)
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
                return np.arange(pair.horizon) % 2 == 0

            return c.PartitionScheme(schedule.depth, same_atom_mask, "alternating")

        monkeypatch.setattr(c.blocks, "central_block_scheme", alternating)
        assert run(["verify", "--suite", "scheme", "--q", "2,2,2"]) == 2
        assert "shift-window property fails" in capsys.readouterr().err


class TestConfigKeys:
    def test_every_registered_key_round_trips(self, tmp_path):
        from chaoslab.cli import CONFIG_KEYS

        lines = {
            "thresholds.tau_one": "0.2",
            "thresholds.tau_zero": "0.1",
            "thresholds.eta_min": "0.07",
            "thresholds.gap": "0.15",
            "thresholds.eta_grid": "0.5,0.8",
            "thresholds.burn_in": "50",
            "run.horizon": "1234",
            "run.seed": "5",
            "run.seed2": "6",
            "run.metric": "cantor",
            "run.q": "2,2",
            "run.out": "somewhere.csv",
            "run.format": "csv",
        }
        assert set(lines) == set(CONFIG_KEYS)
        cfg = tmp_path / "full.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        parsed = load_config(cfg)
        assert parsed["horizon"] == 1234
        assert parsed["tau_one"] == 0.2
        assert parsed["metric"] == "cantor"


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
        d = c.DistanceSeries(np.zeros(1000), 1.0)
        prof = c.phi_profile(d, policy=c.CheckpointPolicy(burn_in=10))
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
}


def assert_pair_matches_oracle(case, out):
    argv = ["pair", *PAIR_CASES[case], "--out", str(out)]
    assert run(argv) == 0
    args = build_parser().parse_args(argv)
    expected = csv_text_direct(_header(args, PAIR_KEYS), *pair_dump_direct(_build_pair(args)))
    assert out.read_bytes() == expected.encode()


@dataclass(frozen=True)
class SignedSymbols:
    """A hand-made system spec without an arity, so any integer symbol goes."""


def hand_built_pair(spec, x, y, track="symbols"):
    a, b = (c.Trajectory(spec, len(t), None, **{track: np.asarray(t)}) for t in (x, y))
    return c.OrbitPair(a, b)


class TestPairDump:
    """`pair` formats whole columns; its bytes must equal one `str` per cell
    in a per-row loop (the oracle)."""

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
            # negative symbols, names looked up in a table over [min, max]
            hand_built_pair(SignedSymbols(), [-3, 1, 0, -1, -3, 1], [0, -2, 1, 1, -1, 0]),
            # a range far wider than the track
            hand_built_pair(SignedSymbols(), [0, -(10**12), 10**12], [1, 1, 1]),
            # reals without a symbol track: blank symbol cells
            hand_built_pair(c.IntervalMap("tent", 1.5), [0.1, 1 / 3, 0.75], [2**-40, 0.5, 1.0],
                            track="reals"),
        ],
        ids=["negative", "sparse", "reals-only"],
    )
    def test_hand_built_pairs_match_oracle(self, pair, tmp_path):
        lines = ["# chaoslab pair", f"# horizon = {pair.horizon}"]
        rows = _PairRows(pair)
        write_csv(tmp_path / "pair.csv", lines, rows.header, rows)
        expected = csv_text_direct(lines, *pair_dump_direct(pair))
        assert (tmp_path / "pair.csv").read_bytes() == expected.encode()

    def test_rows_are_sized_and_reiterable(self):
        pair = c.make_pair(c.IntervalMap("tent", 1.99), 500, (1, 2))
        rows = _PairRows(pair)
        assert len(rows) == pair.horizon
        first = list(rows)
        assert len(first) == pair.horizon
        assert list(rows) == first
        assert first[0][0] == "1" and len(first[0]) == 5


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


# flags that another subcommand takes but this one does not read: each must be
# refused, never accepted and ignored
REMOVED_FLAGS = {
    "pair": ["--tau-one", "--tau-zero", "--eta-min", "--gap", "--eta-grid", "--burn-in",
             "--metric", "--depth", "--format"],
    "phi": ["--tau-one", "--tau-zero", "--eta-min", "--gap", "--eta-grid", "--depth"],
    "scan": ["--witness", "--seed2", "--depth", "--format"],
    "classify": ["--format"],
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
