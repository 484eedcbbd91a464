"""Whole-program pass tests: the :class:`ProjectIndex` fact extractors
and the cross-module rules SL010–SL014, driven by multi-file fixture
packages under ``fixtures/project/`` — every bad case has a corrected
good twin that must stay silent."""

from pathlib import Path

import pytest

from repro.devtools.simlint import (
    PROJECT_RULES,
    ProjectIndex,
    get_project_rule,
    lint_index,
    lint_project,
)
from repro.devtools.simlint.project import (
    ProjectConfig,
    _parse_layers_minimal,
    load_project_config,
)
from repro.devtools.simlint.project_rules import (
    _declared_cycle,
    _strongly_connected,
)

PROJECT_FIXTURES = Path(__file__).parent / "fixtures" / "project"


def case_findings(name):
    return lint_project([PROJECT_FIXTURES / name])


def rules_of(findings):
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_five_project_rules_registered(self):
        assert [rule.id for rule in PROJECT_RULES] == [
            "SL010", "SL011", "SL012", "SL013", "SL014",
        ]

    def test_every_rule_documented(self):
        for rule in PROJECT_RULES:
            assert rule.title
            assert rule.rationale

    def test_get_project_rule_unknown(self):
        with pytest.raises(KeyError):
            get_project_rule("SL999")


class TestSL010DuplicateStreams:
    def test_cross_package_duplicate_fires_at_every_site(self):
        findings = case_findings("sl010_bad")
        assert rules_of(findings) == {"SL010"}
        duplicates = [f for f in findings if "telemetry" in f.message]
        assert len(duplicates) == 2
        assert {Path(f.path).name for f in duplicates} == {
            "device.py", "battery.py",
        }
        # Each site names the other subsystem's claim.
        assert any("repro.energy.battery" in f.message for f in duplicates)
        assert any("repro.net.device" in f.message for f in duplicates)

    def test_reserved_prefix_outside_faults(self):
        findings = case_findings("sl010_bad")
        reserved = [f for f in findings if "faults:" in f.message]
        assert len(reserved) == 1
        assert Path(reserved[0].path).name == "fleet.py"

    def test_good_twin_silent(self):
        # Same name inside one package, the faults: prefix inside
        # faults/, and sim.rng claims are all sanctioned.
        assert case_findings("sl010_good") == []


class TestSL011TopologyMutations:
    def test_unbumped_mutations_fire(self):
        findings = case_findings("sl011_bad")
        assert rules_of(findings) == {"SL011"}
        by_file = {Path(f.path).name: f for f in findings}
        assert set(by_file) == {"rewire.py", "churn.py"}
        assert "rewire()" in by_file["rewire.py"].message
        assert ".depends_on.append" in by_file["rewire.py"].message
        assert "kill()" in by_file["churn.py"].message

    def test_good_twin_silent(self):
        # Bump in the same function and constructor self-initialization
        # are both clean.
        assert case_findings("sl011_good") == []


class TestSL012MetricConflicts:
    def test_all_four_conflict_classes_fire(self):
        findings = case_findings("sl012_bad")
        assert rules_of(findings) == {"SL012"}
        # Kind, edges, label-keys, and gauge-agg conflicts, each
        # reported at both sites.
        assert len(findings) == 8
        messages = " | ".join(f.message for f in findings)
        assert "one name, one instrument kind" in messages
        assert "identical edges" in messages
        assert "incompatible series" in messages
        assert "one aggregation per name" in messages

    def test_good_twin_silent(self):
        assert case_findings("sl012_good") == []


class TestSL013ImportGraph:
    def test_module_cycle_detected(self):
        findings = case_findings("sl013_cycle_bad")
        assert rules_of(findings) == {"SL013"}
        assert len(findings) == 1
        assert "repro.net.alpha <-> repro.net.beta" in findings[0].message

    def test_deferred_and_type_checking_imports_break_cycles(self):
        assert case_findings("sl013_cycle_good") == []

    def test_undeclared_edge_and_missing_package(self):
        findings = case_findings("sl013_dag_bad")
        assert rules_of(findings) == {"SL013"}
        by_file = {Path(f.path).name: f for f in findings}
        assert "no entry in" in by_file["tariff.py"].message
        assert "not an edge of" in by_file["link.py"].message

    def test_declared_edges_silent(self):
        assert case_findings("sl013_dag_good") == []

    def test_upward_imports_from_a_sim_layer_are_findings(self):
        # Top-level runtime/cli imports from a city module break the
        # repo's declared DAG; a deferred import is exempt.
        index = ProjectIndex(load_project_config(Path(__file__).parents[2]))
        for path in ("repro/runtime/__init__.py", "repro/cli.py", "repro/core/units.py"):
            index.add_source("x = 1\n", path=path)
        index.add_source(
            "from repro.runtime import MonteCarloRunner\n"
            "import repro.cli\n"
            "from repro.core import units\n"
            "def late():\n"
            "    from repro.runtime import ScenarioTask\n",
            path="repro/city/layering.py",
        )
        findings = list(get_project_rule("SL013").check(index))
        assert [(f.line, f.message.split(",")[0]) for f in findings] == [
            (2, "package 'city' imports 'cli'"),
            (1, "package 'city' imports 'runtime'"),
        ]

    def test_declared_table_must_be_acyclic(self):
        index = ProjectIndex(
            ProjectConfig(
                layers={"a": ("b",), "b": ("a",)},
                pyproject_path="pyproject.toml",
            )
        )
        index.add_source("x = 1\n", path="repro/core/x.py")
        findings = [
            f for f in get_project_rule("SL013").check(index)
        ]
        assert len(findings) == 1
        assert "cyclic" in findings[0].message
        assert findings[0].path == "pyproject.toml"


class TestSL014UnitSuffixes:
    def test_mismatches_fire(self):
        findings = case_findings("sl014_bad")
        assert rules_of(findings) == {"SL014"}
        assert [f.line for f in findings] == [7, 8, 9]
        positional, keyword, resolved = findings
        assert "argument 1 is 'timeout_m'" in positional.message
        assert "delay_s=interval_m" in keyword.message
        assert "advance()" in resolved.message

    def test_good_twin_and_ambiguous_names_silent(self):
        assert case_findings("sl014_good") == []


class TestIndexFacts:
    def test_heap_entry_shapes_recorded(self):
        index = ProjectIndex()
        index.add_source(
            "import heapq\n"
            "def push(q, t, item):\n"
            "    heapq.heappush(q, (t, 0, item))\n",
            path="repro/core/queue.py",
        )
        entries = index.heap_entry_shapes()
        assert len(entries) == 1
        assert entries[0].arity == 3

    def test_type_checking_imports_marked_type_only(self):
        index = ProjectIndex()
        index.add_source(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.net import device\n",
            path="repro/city/fleet.py",
        )
        facts = [
            f
            for info in index.infos()
            for f in info.imports
            if f.base == "repro.net"
        ]
        assert facts and all(f.type_only for f in facts)

    def test_function_scope_imports_not_top_level(self):
        index = ProjectIndex()
        index.add_source(
            "def late():\n"
            "    from repro.net import device\n"
            "    return device\n",
            path="repro/city/fleet.py",
        )
        facts = [
            f
            for info in index.infos()
            for f in info.imports
            if f.base == "repro.net"
        ]
        assert facts and all(not f.top_level for f in facts)

    def test_syntax_errors_skipped_not_fatal(self):
        index = ProjectIndex()
        index.add_source("def broken(:\n", path="repro/net/broken.py")
        assert index.modules == {}

    def test_project_findings_honor_suppressions(self):
        index = ProjectIndex()
        index.add_source(
            "def build(streams):\n"
            "    return streams.get('faults:x')  # simlint: ignore[SL010]\n",
            path="repro/net/device.py",
        )
        assert lint_index(index) == []


class TestLayersConfig:
    def test_minimal_parser_matches_real_pyproject(self):
        # The repo's own table (multi-line arrays included) must parse
        # identically with and without tomllib.
        pyproject = Path(__file__).parents[2] / "pyproject.toml"
        cfg = load_project_config(pyproject.parent)
        assert cfg.layers is not None
        assert _parse_layers_minimal(pyproject.read_text()) == cfg.layers

    def test_minimal_parser_handles_multiline_arrays(self):
        layers = _parse_layers_minimal(
            "[tool.simlint.layers]\n"
            'core = []\n'
            'net = [\n'
            '    "core",  # comment\n'
            '    "radio",\n'
            "]\n"
            "[tool.other]\n"
            'net = ["ignored"]\n'
        )
        assert layers == {"core": (), "net": ("core", "radio")}

    def test_missing_table_returns_none(self):
        assert _parse_layers_minimal("[tool.black]\nline-length = 88\n") is None


class TestGraphAlgorithms:
    def test_strongly_connected_components(self):
        graph = {
            "a": ["b"], "b": ["c"], "c": ["a"],  # 3-cycle
            "d": ["a"],                           # tail into it
            "e": [],                              # isolated
        }
        sccs = [sorted(s) for s in _strongly_connected(graph) if len(s) > 1]
        assert sccs == [["a", "b", "c"]]

    def test_declared_cycle_detection(self):
        assert _declared_cycle({"a": ("b",), "b": ()}) is None
        cycle = _declared_cycle({"a": ("b",), "b": ("a",)})
        assert cycle is not None and cycle[0] == cycle[-1]


def _probe_stack():
    from repro.core import Entity, Hierarchy, Simulation

    class Dev(Entity):
        TIER = "device"

    class Gw(Entity):
        TIER = "gateway"

    class Cl(Entity):
        TIER = "cloud"

    sim = Simulation()
    cloud = Cl(sim, "cloud")
    gateway = Gw(sim, "gw")
    gateway.tags["asn"] = "7922"
    device = Dev(sim, "dev")
    gateway.add_dependency(cloud)
    device.add_dependency(gateway)
    hierarchy = Hierarchy()
    hierarchy.extend([cloud, gateway, device])
    for entity in hierarchy.entities:
        entity.deploy()
    return sim, hierarchy, gateway


class TestRealTreeContracts:
    def test_blast_radius_bumps_topology_version(self):
        # SL011 found these: the counterfactual probes flip entity
        # state without invalidating version-keyed caches.  The fix
        # bumps at the flip and again at the restore.
        sim, hierarchy, gateway = _probe_stack()
        state = gateway.state
        version = sim.topology_version
        lost = hierarchy.blast_radius(gateway)
        assert [e.name for e in lost] == ["dev"]
        assert gateway.state == state, "probe must restore state"
        assert sim.topology_version == version + 2, (
            "flip and restore must each invalidate version-keyed caches"
        )

    def test_correlated_failure_bumps_topology_version(self):
        from repro.analysis.risk import correlated_failure

        sim, hierarchy, gateway = _probe_stack()
        version = sim.topology_version
        result = correlated_failure(hierarchy, "asn", "7922")
        assert result.devices_lost == 1
        assert gateway.alive, "probe must restore state"
        assert sim.topology_version == version + 2
