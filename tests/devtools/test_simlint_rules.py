"""Per-rule tests for simlint: one fixture module per rule with known
violations (asserting exact rule ids and line numbers), a clean module,
and the suppression-comment semantics."""

from pathlib import Path

import pytest

from repro.devtools.simlint import (
    PARSE_ERROR_RULE,
    RULES,
    Finding,
    get_rule,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_findings(name: str, module=None):
    path = FIXTURES / name
    if module is not None:
        return lint_source(path.read_text(), path=str(path), module=module)
    return lint_file(path)


def lines_for(findings, rule):
    return [f.line for f in findings if f.rule == rule]


class TestRegistry:
    def test_all_nine_rules_registered(self):
        assert [rule.id for rule in RULES] == [
            "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
            "SL008", "SL009",
        ]

    def test_every_rule_documented(self):
        for rule in RULES:
            assert rule.title
            assert rule.rationale

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError):
            get_rule("SL999")


class TestSL001Nondeterminism:
    def test_exact_lines(self):
        findings = fixture_findings("sl001_nondeterminism.py")
        assert {f.rule for f in findings} == {"SL001"}
        assert lines_for(findings, "SL001") == [9, 16, 20, 24, 28, 32]

    def test_aliased_imports_resolved(self):
        findings = lint_source(
            "import time as clock\n"
            "from datetime import datetime as dt\n"
            "a = clock.time()\n"
            "b = dt.utcnow()\n"
        )
        assert lines_for(findings, "SL001") == [3, 4]

    def test_perf_counter_allowed(self):
        # Wall-clock *measurement* for observability is fine; only
        # result-affecting clock reads are banned.
        assert lint_source("import time\nx = time.perf_counter()\n") == []


class TestSL002AdHocRng:
    def test_exact_lines(self):
        findings = fixture_findings("sl002_adhoc_rng.py")
        assert {f.rule for f in findings} == {"SL002"}
        assert lines_for(findings, "SL002") == [12, 16, 20, 21]

    def test_core_rng_module_exempt(self):
        source = (
            "import numpy as np\n"
            "g = np.random.default_rng(np.random.SeedSequence(entropy=(1,)))\n"
        )
        assert lint_source(source, module="repro.core.rng") == []
        assert lines_for(lint_source(source, module="repro.net.trust"), "SL002") == [2, 2]

    def test_generator_annotations_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n"
        )
        assert lint_source(source) == []


class TestSL003ImplicitOptional:
    def test_exact_lines(self):
        findings = fixture_findings("sl003_implicit_optional.py")
        assert {f.rule for f in findings} == {"SL003"}
        assert lines_for(findings, "SL003") == [10, 14, 20]

    def test_explicit_optional_variants_clean(self):
        # The fixture's fine_* functions cover Optional, Union, Any,
        # PEP 604 strings, and unannotated defaults: none may fire.
        findings = fixture_findings("sl003_implicit_optional.py")
        assert all(f.line <= 20 for f in findings)


class TestSL004MutableDefault:
    def test_exact_lines(self):
        findings = fixture_findings("sl004_mutable_default.py")
        assert {f.rule for f in findings} == {"SL004"}
        assert lines_for(findings, "SL004") == [10, 14, 18, 22]

    def test_dataclass_field_factory_clean(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "from typing import List\n"
            "@dataclass\n"
            "class Diary:\n"
            "    entries: List[str] = field(default_factory=list)\n"
        )
        assert lint_source(source) == []


class TestSL005FloatTimeEquality:
    def test_exact_lines(self):
        findings = fixture_findings("sl005_float_time_eq.py")
        assert {f.rule for f in findings} == {"SL005"}
        assert lines_for(findings, "SL005") == [9, 13, 17]

    def test_nan_guard_exempt(self):
        assert lint_source("def f(time: float) -> bool:\n    return time != time\n") == []

    def test_chained_comparison_positions(self):
        findings = lint_source("ok = 0.0 <= now == deadline\n")
        assert lines_for(findings, "SL005") == [1]


class TestSL006Layering:
    def test_exact_lines(self):
        findings = fixture_findings(
            "sl006_layering.py", module="repro.city.sl006_layering"
        )
        assert {f.rule for f in findings} == {"SL006"}
        assert lines_for(findings, "SL006") == [8, 9, 10]

    def test_relative_imports_resolved(self):
        findings = lint_source(
            "from ..analysis.report import PaperComparison\n",
            module="repro.experiment.fifty_year",
        )
        assert lines_for(findings, "SL006") == [1]

    def test_from_package_import_submodule(self):
        findings = lint_source(
            "from ..analysis import report\n",
            module="repro.experiment.fifty_year",
        )
        assert lines_for(findings, "SL006") == [1]

    def test_diary_import_allowed(self):
        assert lint_source(
            "from ..analysis.diary import ExperimentDiary\n",
            module="repro.experiment.fifty_year",
        ) == []

    def test_non_sim_layers_unconstrained(self):
        source = "from repro.runtime import MonteCarloRunner\n"
        assert lint_source(source, module="repro.cli") == []
        assert lint_source(source, module="repro.analysis.report") == []


class TestSL007NonTupleHeapEntry:
    def test_exact_lines(self):
        findings = fixture_findings("sl007_heap_entry.py")
        assert {f.rule for f in findings} == {"SL007"}
        assert lines_for(findings, "SL007") == [12, 16, 20, 24]

    def test_suppressed_requeue_clean(self):
        # The fixture's requeue function (the deliberate kernel idiom:
        # push back an entry previously popped from the same heap)
        # carries an ignore pragma and must not be reported.
        findings = fixture_findings("sl007_heap_entry.py")
        assert 28 not in lines_for(findings, "SL007")

    def test_tuple_entries_clean(self):
        source = (
            "import heapq\n"
            "def f(heap, ev):\n"
            "    heapq.heappush(heap, (ev.time, ev.priority, 0, ev))\n"
        )
        assert lint_source(source) == []

    def test_heappop_not_flagged(self):
        source = "import heapq\ndef f(heap):\n    return heapq.heappop(heap)\n"
        assert lint_source(source) == []

    def test_aliased_import_resolved(self):
        source = (
            "import heapq as hq\n"
            "def f(heap, ev):\n"
            "    hq.heappush(heap, ev)\n"
        )
        assert lines_for(lint_source(source), "SL007") == [3]


class TestSL008FaultRandomness:
    def test_exact_lines(self):
        findings = fixture_findings(
            "sl008_faults_rng.py", module="repro.faults.sl008_faults_rng"
        )
        assert {f.rule for f in findings} == {"SL008"}
        assert lines_for(findings, "SL008") == [11, 15, 19]

    def test_rule_scoped_to_faults_package(self):
        # The identical source outside repro.faults is out of scope.
        path = FIXTURES / "sl008_faults_rng.py"
        source = path.read_text()
        assert lint_source(source, module="repro.net.helium") == []
        assert lint_source(source, module="faults_utils") == []

    def test_stream_producers_allowed(self):
        source = (
            "def f(sim, controller, spec, pool):\n"
            "    a = sim.rng('faults:k').choice(len(pool))\n"
            "    b = controller.stream_for(spec).integers(0, 4)\n"
            "    c = sim.streams.get('faults:k').random()\n"
            "    return a, b, c\n"
        )
        assert lint_source(source, module="repro.faults.spec") == []

    def test_shared_stream_receiver_flagged(self):
        # Drawing from an object that is not visibly a stream or a
        # stream-producer call is exactly the bug class SL008 exists for.
        source = "def f(model):\n    return model.exponential(2.0)\n"
        findings = lint_source(source, module="repro.faults.spec")
        assert lines_for(findings, "SL008") == [2]


class TestSL009WallClockInSimLayer:
    def test_exact_lines(self):
        findings = fixture_findings(
            "sl009_wall_clock.py", module="repro.core.sl009_wall_clock"
        )
        assert {f.rule for f in findings} == {"SL009"}
        assert lines_for(findings, "SL009") == [12, 14, 18, 22, 26]

    def test_rule_scoped_to_sim_layers(self):
        # The identical source in runtime/cli (or module-less) is fine:
        # that is exactly where timing harnesses belong.
        path = FIXTURES / "sl009_wall_clock.py"
        source = path.read_text()
        assert lint_source(source, module="repro.runtime.runner") == []
        assert lint_source(source, module="repro.cli") == []
        assert lint_source(source) == []

    def test_obs_layer_in_scope(self):
        source = "import time\nx = time.monotonic()\n"
        findings = lint_source(source, module="repro.obs.trace")
        assert lines_for(findings, "SL009") == [2]

    def test_epoch_clock_in_sim_layer_fires_both_rules(self):
        # time.time() in a sim layer is doubly wrong: SL001 (epoch clock
        # anywhere) and SL009 (any clock in a sim layer).
        source = "import time\nx = time.time()\n"
        findings = lint_source(source, module="repro.net.device")
        assert lines_for(findings, "SL001") == [2]
        assert lines_for(findings, "SL009") == [2]


class TestCleanModule:
    def test_zero_findings(self):
        assert fixture_findings("clean.py") == []


class TestSuppression:
    def test_pragmas_silence_matching_rules_only(self):
        findings = fixture_findings("suppressed.py")
        # Only line 17 survives: its pragma names SL004, but the
        # violation is SL001.
        assert [(f.rule, f.line) for f in findings] == [("SL001", 17)]

    def test_bare_ignore_silences_everything_on_line(self):
        source = "import random  # simlint: ignore\n"
        assert lint_source(source) == []

    def test_skip_file(self):
        source = "# simlint: skip-file\nimport random\nx = random.random()\n"
        assert lint_source(source) == []

    def test_ignore_is_line_scoped(self):
        source = (
            "import random  # simlint: ignore[SL001]\n"
            "x = random.random()\n"
        )
        findings = lint_source(source)
        assert [(f.rule, f.line) for f in findings] == [("SL001", 2)]


class TestParseErrors:
    def test_syntax_error_reported_as_sl000(self):
        findings = lint_source("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_ERROR_RULE


class TestFindingModel:
    def test_format_is_clickable(self):
        finding = Finding("src/x.py", 3, 7, "SL001", "msg")
        assert finding.format() == "src/x.py:3:7: SL001 msg"

    def test_ordering_is_positional(self):
        a = Finding("a.py", 2, 1, "SL005", "m")
        b = Finding("a.py", 10, 1, "SL001", "m")
        assert sorted([b, a]) == [a, b]


class TestParseSuppressions:
    def test_multiple_pragmas_in_one_comment_merge(self):
        source = "x = 1  # simlint: ignore[SL005] simlint: ignore[SL007]\n"
        suppressions, skip = parse_suppressions(source)
        assert not skip
        assert suppressions == {1: frozenset({"SL005", "SL007"})}

    def test_blanket_ignore_wins_over_scoped(self):
        # Either order: once any pragma on the line is a bare `ignore`,
        # the whole line is exempt (empty frozenset).
        for source in (
            "x = 1  # simlint: ignore simlint: ignore[SL005]\n",
            "x = 1  # simlint: ignore[SL005] simlint: ignore\n",
        ):
            suppressions, __ = parse_suppressions(source)
            assert suppressions == {1: frozenset()}, source

    def test_duplicate_rule_ids_collapse(self):
        source = "x = 1  # simlint: ignore[SL001, SL001, sl001]\n"
        suppressions, __ = parse_suppressions(source)
        assert suppressions == {1: frozenset({"SL001"})}

    def test_lowercase_ids_normalized(self):
        source = "import random  # simlint: ignore[sl001]\n"
        assert lint_source(source) == []

    def test_tokenize_error_tolerated(self):
        suppressions, skip = parse_suppressions("x = (\n")
        assert suppressions == {} and not skip


class TestFileDiscovery:
    def test_same_tree_via_two_spellings_lints_once(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("import random\n")
        once = iter_python_files([package])
        twice = iter_python_files([package, tmp_path / "." / "pkg"])
        assert len(once) == len(twice) == 1
        # Findings don't double up either.
        assert len(lint_paths([package, tmp_path / "." / "pkg"])) == 1

    def test_first_spelling_wins_for_reporting(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        relative = tmp_path / "." / "mod.py"
        files = iter_python_files([relative, tmp_path / "mod.py"])
        assert files == [relative]
