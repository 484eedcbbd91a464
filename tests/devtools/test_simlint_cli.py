"""CLI-level tests: ``python -m repro lint`` text/JSON output and exit
codes, as consumed by the CI ``lint-sim`` step."""

import json
from pathlib import Path

from repro.cli import main
from repro.devtools.simlint import JSON_SCHEMA_VERSION
from repro.devtools.simlint.cli import main as simlint_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = str(Path(__file__).parents[2] / "src" / "repro")


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", SRC_REPRO]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main(["lint", str(FIXTURES / "sl001_nondeterminism.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "SL001" in out
        assert "finding(s)" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/a/path.py"]) == 2
        assert "simlint" in capsys.readouterr().err


class TestJsonFormat:
    def test_json_is_machine_parseable(self, capsys):
        code = main(
            ["lint", "--format", "json", str(FIXTURES / "sl002_adhoc_rng.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == 4
        assert payload["counts_by_rule"] == {"SL002": 4}
        first = payload["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        assert first["rule"] == "SL002"
        assert first["line"] == 12

    def test_json_clean_tree(self, capsys):
        assert main(["lint", "--format", "json", SRC_REPRO]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []

    def test_findings_sorted_by_position(self, capsys):
        main(["lint", "--format", "json", str(FIXTURES)])
        payload = json.loads(capsys.readouterr().out)
        keys = [(f["path"], f["line"], f["col"]) for f in payload["findings"]]
        assert keys == sorted(keys)


class TestRuleCatalog:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL001", "SL002", "SL003", "SL004", "SL005", "SL006"):
            assert rule_id in out


class TestStandaloneEntryPoint:
    def test_module_main_matches_repro_lint(self, capsys):
        assert simlint_main([SRC_REPRO]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_default_target_is_repro_package(self, capsys):
        # No paths: lint the installed package itself.
        assert simlint_main([]) == 0
        assert "simlint: clean" in capsys.readouterr().out


class TestGithubFormat:
    def test_error_annotations_emitted(self, capsys):
        code = main(
            [
                "lint",
                "--format",
                "github",
                str(FIXTURES / "sl001_nondeterminism.py"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("::error ")]
        assert len(lines) == 6
        first = lines[0]
        assert "file=" in first and "line=9" in first and "::SL001 " in first

    def test_clean_tree_has_no_annotations(self, capsys):
        assert main(["lint", "--format", "github", SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "simlint: clean" in out


class TestProjectMode:
    def test_project_pass_clean_on_repro(self, capsys):
        assert main(["lint", "--project", SRC_REPRO]) == 0
        assert "simlint: clean" in capsys.readouterr().out

    def test_project_findings_reported(self, capsys):
        bad = FIXTURES / "project" / "sl010_bad"
        code = main(["lint", "--project", "--format", "json", str(bad)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"SL010": 3}

    def test_list_rules_includes_project_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL010", "SL011", "SL012", "SL013", "SL014"):
            assert rule_id in out
