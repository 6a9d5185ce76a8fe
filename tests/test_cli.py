import os
from pathlib import Path

import numpy as np
import pytest

import chaoslab as c
from chaoslab.cli import atomic_write, emit_phi_svg, load_config, run
from chaoslab.errors import UsageError


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
        assert run(
            ["count-ball", "--n", "25", "--m", "2", "--eta", "0.5",
             "--out", str(tmp_path / "x.csv")]
        ) == 3

    def test_bad_parameter_is_usage(self, tmp_path):
        assert run(
            ["pair", "--system", "tent", "--param", "3.0",
             "--out", str(tmp_path / "x.csv")]
        ) == 1


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
    def test_witness_profile_curves_visibly_separated(self, tmp_path):
        # the doubling witness has a 1/3 gap between the curves at every
        # threshold: about a third of the plot height apart
        pair = c.construct_witness_pair("DC3", 4**10)
        prof = c.phi_profile(c.distance_series(pair))
        path = tmp_path / "gap.svg"
        emit_phi_svg(prof, path)
        star_ys, lower_ys = _polyline_ys(read(path))
        plot_height = 420 - 30 - 50
        gaps = [(l - s) / plot_height for s, l in zip(star_ys, lower_ys)]
        assert all(abs(g - 1 / 3) < 0.05 for g in gaps)

    def test_deterministic_bytes(self, tmp_path):
        pair = c.construct_witness_pair("DC3", 16382)
        prof = c.phi_profile(c.distance_series(pair))
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        emit_phi_svg(prof, p1)
        emit_phi_svg(prof, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = read(p1)
        assert text.startswith("<?xml") and "<svg" in text and "polyline" in text

    def test_flat_profile_two_lines_at_one(self, tmp_path):
        d = c.DistanceSeries(np.zeros(1000), 1.0)
        prof = c.phi_profile(d, policy=c.CheckpointPolicy(burn_in=10))
        path = tmp_path / "flat.svg"
        emit_phi_svg(prof, path)
        text = read(path)
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
