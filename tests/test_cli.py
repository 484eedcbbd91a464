"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.faults.plans import pinned_chaos_plan
from repro.serve.request import MAX_RUNS, MAX_YEARS, RequestError, parse_request

RUNTIME_GOLDEN = Path(__file__).parent / "runtime" / "golden"


def _usage_error(capsys, command):
    """The one line a rejected command prints, minus its prefix."""
    captured = capsys.readouterr()
    prefix = f"repro {command}: error: "
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.endswith("\n")
    assert captured.err.count("\n") == 1
    return captured.err[len(prefix):-1]


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

    def test_run_metrics_format_prom(self, tmp_path, capsys):
        path = tmp_path / "run.prom"
        assert main(["run", "owned-only", "--years", "1", "--report-days", "7",
                     "--metrics", str(path), "--metrics-format", "prom"]) == 0
        assert f"metrics: 1 snapshot(s) -> {path}" in capsys.readouterr().out
        text = path.read_text()
        assert text.startswith("# TYPE")
        assert "\nsim_events_executed_total " in text

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
        assert "--out" in _usage_error(capsys, "mc")

    def test_shard_rejects_metrics(self, tmp_path, capsys):
        args = self.MC + ["--shard", "0/2", "--out", str(tmp_path / "s.mcr"),
                          "--metrics", str(tmp_path / "m.jsonl")]
        assert main(args) == 2
        assert "mc-merge" in _usage_error(capsys, "mc")

    @pytest.mark.parametrize("spec", ["2", "a/b", "2/2", "-1/2", "0/0"])
    def test_malformed_shard_spec(self, spec, tmp_path, capsys):
        args = self.MC + [f"--shard={spec}", "--out", str(tmp_path / "s.mcr")]
        assert main(args) == 2
        assert "shard" in _usage_error(capsys, "mc")

    def test_merge_rejects_incompatible_shards(self, tmp_path, capsys):
        a = tmp_path / "a.mcr"
        b = tmp_path / "b.mcr"
        assert main(self.MC + ["--shard", "0/2", "--out", str(a)]) == 0
        assert main(["mc", "owned-only", "--runs", "4", "--years", "1",
                     "--report-days", "7", "--base-seed", "999",
                     "--shard", "1/2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["mc-merge", str(a), str(b)]) == 2
        assert "cannot merge shards" in _usage_error(capsys, "mc-merge")

    def test_merges_with_a_shard_from_the_earlier_cli(self, tmp_path, capsys):
        """``golden/…shard0of2.mcr`` was written by the CLI before ``mc``
        parsed its flags through the request validator (same flags as
        below, plan from ``examples/plans/ten_fault_chaos.json``).  The
        merge checks task digests, so this pins that the same flags still
        make the same ScenarioTask.  A change meant to alter run output
        re-captures it with those flags plus ``--shard 0/2 --out``; the
        ``task_digest`` in its header must not move."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(pinned_chaos_plan().to_dict()))
        flags = ["mc", "owned-only", "--runs", "2", "--years", "0.1",
                 "--report-days", "7", "--base-seed", "100",
                 "--faults", str(plan), "--audit"]
        ours = tmp_path / "shard_1.mcr"
        assert main(flags + ["--shard", "1/2", "--out", str(ours)]) == 0
        single = tmp_path / "single.jsonl"
        assert main(flags + ["--workers", "1", "--metrics", str(single)]) == 0
        merged = tmp_path / "merged.jsonl"
        earlier = RUNTIME_GOLDEN / "owned-only_chaos_shard0of2.mcr"
        assert main(["mc-merge", str(earlier), str(ours),
                     "--metrics", str(merged)]) == 0
        assert "2 runs" in capsys.readouterr().out
        assert merged.read_bytes() == single.read_bytes()

    def test_merge_missing_file(self, tmp_path, capsys):
        assert main(["mc-merge", str(tmp_path / "nope.mcr")]) == 2
        assert "cannot merge shards" in _usage_error(capsys, "mc-merge")


@pytest.fixture
def planless_plan(tmp_path):
    path = tmp_path / "planless.json"
    path.write_text(json.dumps({"version": 1}))
    return path


class TestRequestParity:
    """One validator: a bad input reads the same on the CLI and over HTTP."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            pytest.param(["run", "moonbase"], {"scenario": "moonbase"},
                         id="run-unknown-scenario"),
            pytest.param(["mc", "moonbase"], {"scenario": "moonbase"},
                         id="mc-unknown-scenario"),
            pytest.param(["run", "as-designed", "--years", "0"],
                         {"scenario": "as-designed", "years": 0},
                         id="run-years-0"),
            pytest.param(["mc", "as-designed", "--years", "0"],
                         {"scenario": "as-designed", "years": 0},
                         id="mc-years-0"),
            pytest.param(["run", "as-designed", "--years", "1", "--report-days", "0"],
                         {"scenario": "as-designed", "years": 1, "report_days": 0},
                         id="run-report-days-0"),
            pytest.param(["mc", "as-designed", "--years", "1", "--report-days", "0"],
                         {"scenario": "as-designed", "years": 1, "report_days": 0},
                         id="mc-report-days-0"),
            pytest.param(["run", "as-designed", "--years", "1", "--report-days", "400"],
                         {"scenario": "as-designed", "years": 1, "report_days": 400},
                         id="run-report-days-past-horizon"),
            pytest.param(["mc", "as-designed", "--years", "1", "--report-days", "400"],
                         {"scenario": "as-designed", "years": 1, "report_days": 400},
                         id="mc-report-days-past-horizon"),
            pytest.param(["run", "as-designed", "--years", "1", "--report-days", "366"],
                         {"scenario": "as-designed", "years": 1, "report_days": 366},
                         id="run-report-days-a-day-past-horizon"),
            pytest.param(["mc", "as-designed", "--runs", "0"],
                         {"scenario": "as-designed", "runs": 0},
                         id="mc-runs-0"),
            pytest.param(["run", "as-designed", "--faults", "PLAN"],
                         {"scenario": "as-designed", "faults": {"version": 1}},
                         id="run-plan-without-faults"),
            pytest.param(["mc", "as-designed", "--faults", "PLAN"],
                         {"scenario": "as-designed", "faults": {"version": 1}},
                         id="mc-plan-without-faults"),
        ],
    )
    def test_cli_prints_the_served_message(
        self, argv, payload, planless_plan, capsys
    ):
        command = argv[0]
        with pytest.raises(RequestError) as served:
            parse_request(payload, command)
        argv = [str(planless_plan) if arg == "PLAN" else arg for arg in argv]
        assert main(argv) == 2
        assert _usage_error(capsys, command) == str(served.value)

    def test_unreadable_plan_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "owned-only", "--faults", str(missing)]) == 2
        assert _usage_error(capsys, "run").startswith("bad fault plan: ")

    def test_cli_has_no_work_ceilings(self, capsys):
        # The serving ceilings refuse these ...
        with pytest.raises(RequestError, match="years must be in"):
            parse_request({"scenario": "as-designed", "years": 2 * MAX_YEARS}, "run")
        with pytest.raises(RequestError, match="runs must be in"):
            parse_request({"scenario": "as-designed", "runs": MAX_RUNS + 1}, "mc")
        # ... while the CLI parses them and fails only on the next,
        # deliberately bad, input.
        years = str(2 * MAX_YEARS)
        assert main(["run", "as-designed", "--years", years,
                     "--report-days", "0"]) == 2
        assert _usage_error(capsys, "run").startswith("report_days must be in")
        assert main(["mc", "as-designed", "--runs", str(MAX_RUNS + 1),
                     "--workers", "-1"]) == 2
        assert _usage_error(capsys, "mc").startswith("workers must be >= 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "owned-only", "--workers", "-1"],
            ["serve", "--workers", "-1"],
            ["serve", "--queue-limit", "0"],
        ],
    )
    def test_bad_service_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert _usage_error(capsys, argv[0])
