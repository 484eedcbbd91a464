"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "owned-only"])
        assert args.scenario == "owned-only"
        assert args.years == 10.0
        assert args.seed == 2021


class TestCommands:
    def test_scenarios_lists_catalog(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "as-designed" in out
        assert "staff-turnover" in out

    def test_la(self, capsys):
        assert main(["la"]) == 0
        out = capsys.readouterr().out
        assert "591,315" in out
        assert "197,105" in out

    def test_la_custom_minutes(self, capsys):
        assert main(["la", "--minutes", "60"]) == 0
        assert "591,315 person-hours" in capsys.readouterr().out

    def test_quote(self, capsys):
        assert main(["quote"]) == 0
        out = capsys.readouterr().out
        assert "438,000" in out
        assert "$5.00" in out

    def test_quote_faster_schedule(self, capsys):
        assert main(["quote", "--per-hour", "6"]) == 0
        assert "2,628,000" in capsys.readouterr().out

    def test_tco(self, capsys):
        assert main(["tco", "--gateways", "50", "--horizon", "30"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out
        assert "fiber" in out

    def test_capacity(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "802.15.4" in out
        assert "lora-sf12" in out

    def test_run_short_scenario(self, capsys):
        code = main(
            ["run", "owned-only", "--years", "1", "--report-days", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall weekly uptime" in out

    def test_run_with_diary(self, capsys):
        code = main(
            ["run", "owned-only", "--years", "1", "--report-days", "7", "--diary"]
        )
        assert code == 0
        assert "experiment commenced" in capsys.readouterr().out

    def test_run_unknown_scenario(self, capsys):
        assert main(["run", "moonbase", "--years", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_mc_study(self, capsys):
        code = main([
            "mc", "owned-only", "--runs", "2", "--years", "1",
            "--workers", "1", "--report-days", "7", "--per-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "peak pending queue" in out
        assert "peak-q" in out

    def test_mc_unknown_scenario(self, capsys):
        assert main(["mc", "moonbase", "--runs", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "mc"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--years", "0"], "horizon must be positive"),
            (["--years", "1", "--report-days", "0"], "report_interval must be positive"),
        ],
    )
    def test_bad_config_is_a_one_line_usage_error(self, command, flags, message, capsys):
        assert main([command, "as-designed", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {command}: error: {message}\n"
        assert captured.out == ""

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path / "figs"), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "e05_tco.csv" in out
        assert (tmp_path / "figs" / "e15_channel.csv").exists()

class TestShardedExecution:
    """mc --shard / mc-merge: the distributed-execution CLI surface."""

    MC = ["mc", "owned-only", "--runs", "4", "--years", "1",
          "--report-days", "7"]

    def test_shard_then_merge_matches_workers_1(self, tmp_path, capsys):
        single = tmp_path / "single.jsonl"
        assert main(self.MC + ["--workers", "1",
                               "--metrics", str(single)]) == 0
        shards = []
        for i in range(2):
            out = tmp_path / f"s{i}.mcr"
            assert main(self.MC + ["--shard", f"{i}/2",
                                   "--out", str(out)]) == 0
            shards.append(str(out))
        text = capsys.readouterr().out
        assert "shard 0/2" in text
        assert "shard 1/2" in text
        merged = tmp_path / "merged.jsonl"
        assert main(["mc-merge"] + shards + ["--metrics", str(merged)]) == 0
        assert "4 runs" in capsys.readouterr().out
        # The acceptance criterion: byte-identical metrics JSONL.
        assert merged.read_bytes() == single.read_bytes()

    def test_shard_requires_out(self, capsys):
        assert main(self.MC + ["--shard", "0/2"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_shard_rejects_metrics(self, tmp_path, capsys):
        args = self.MC + ["--shard", "0/2", "--out", str(tmp_path / "s.mcr"),
                          "--metrics", str(tmp_path / "m.jsonl")]
        assert main(args) == 2
        assert "mc-merge" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["2", "a/b", "2/2", "-1/2", "0/0"])
    def test_malformed_shard_spec(self, spec, tmp_path, capsys):
        args = self.MC + [f"--shard={spec}", "--out", str(tmp_path / "s.mcr")]
        assert main(args) == 2
        assert "shard" in capsys.readouterr().err

    def test_merge_rejects_incompatible_shards(self, tmp_path, capsys):
        a = tmp_path / "a.mcr"
        b = tmp_path / "b.mcr"
        assert main(self.MC + ["--shard", "0/2", "--out", str(a)]) == 0
        assert main(["mc", "owned-only", "--runs", "4", "--years", "1",
                     "--report-days", "7", "--base-seed", "999",
                     "--shard", "1/2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["mc-merge", str(a), str(b)]) == 2
        assert "cannot merge shards" in capsys.readouterr().err

    def test_merge_missing_file(self, tmp_path, capsys):
        assert main(["mc-merge", str(tmp_path / "nope.mcr")]) == 2
        assert "cannot merge shards" in capsys.readouterr().err
