"""Unit coverage for selectors, specs, plans, and the JSON format."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Simulation, units
from repro.core.entity import Entity
from repro.faults import (
    CustodianLapse,
    DegradeFault,
    FaultPlan,
    FaultPlanError,
    FlapFault,
    HotspotChurnBurst,
    KillFault,
    MaintenanceNoShow,
    Selector,
    WalletDrain,
    load_plan,
    pinned_chaos_plan,
)
from repro.reliability.distributions import Exponential
from repro.reliability.failure import RenewalProcess


class Widget(Entity):
    TIER = "gateway"


class Pipe(Entity):
    TIER = "backhaul"


def _population(sim, n=5):
    widgets = []
    for index in range(n):
        widget = Widget(sim, name=f"w{index}")
        widget.tags["technology"] = "lora" if index % 2 else "802.15.4"
        widget.deploy()
        widgets.append(widget)
    return widgets


class TestSelector:
    def test_by_name_hits_only_named_live_entities(self):
        sim = Simulation(seed=0)
        widgets = _population(sim)
        widgets[1].fail()
        chosen = Selector.by_name("w0", "w1", "w3").resolve(sim)
        assert [w.name for w in chosen] == ["w0", "w3"]

    def test_by_tier_with_where_filter(self):
        sim = Simulation(seed=0)
        _population(sim)
        lora = Selector.by_tier("gateway", where=(("technology", "lora"),))
        assert [w.name for w in lora.resolve(sim)] == ["w1", "w3"]

    def test_k_random_is_deterministic_per_stream(self):
        sim_a = Simulation(seed=11)
        _population(sim_a, n=8)
        sim_b = Simulation(seed=11)
        _population(sim_b, n=8)
        select = Selector.k_random(3, tier="gateway")
        picks_a = [w.name for w in select.resolve(sim_a, sim_a.rng("faults:x"))]
        picks_b = [w.name for w in select.resolve(sim_b, sim_b.rng("faults:x"))]
        assert len(picks_a) == 3
        assert picks_a == picks_b

    def test_k_random_clamps_to_population(self):
        sim = Simulation(seed=3)
        _population(sim, n=2)
        select = Selector.k_random(10, tier="gateway")
        assert len(select.resolve(sim, sim.rng("faults:y"))) == 2

    def test_blast_radius_prefers_most_depended_on(self):
        sim = Simulation(seed=0)
        shared, spare = Pipe(sim, name="shared"), Pipe(sim, name="spare")
        widgets = _population(sim, n=4)
        for widget in widgets[:3]:
            widget.add_dependency(shared)
        widgets[3].add_dependency(spare)
        shared.deploy(), spare.deploy()
        top = Selector.blast_radius(1, tier="backhaul").resolve(sim)
        assert [e.name for e in top] == ["shared"]

    def test_validation(self):
        with pytest.raises(ValueError):
            Selector(by="psychic")
        with pytest.raises(ValueError):
            Selector.by_name()
        with pytest.raises(ValueError):
            Selector.k_random(0, tier="gateway")


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            KillFault(at=-1.0, select=Selector.by_tier("gateway"))
        with pytest.raises(ValueError):
            KillFault(at=0.0, select=Selector.by_tier("gateway"), mode="maim")
        with pytest.raises(ValueError):
            DegradeFault(at=0.0, select=Selector.by_tier("cloud"), duration=0.0)
        with pytest.raises(ValueError):
            FlapFault(at=0.0, select=Selector.by_tier("backhaul"), down=1.0,
                      up=0.0)
        with pytest.raises(ValueError):
            HotspotChurnBurst(at=0.0, k=0)
        with pytest.raises(ValueError):
            WalletDrain(at=0.0)  # neither credits nor fraction
        with pytest.raises(ValueError):
            WalletDrain(at=0.0, credits=5, fraction=0.5)  # both
        with pytest.raises(ValueError):
            WalletDrain(at=0.0, fraction=1.5)
        with pytest.raises(ValueError):
            MaintenanceNoShow(at=0.0, duration=-1.0)
        with pytest.raises(ValueError):
            CustodianLapse(at=0.0, duration=0.0)
        # Non-finite times: NaN passes a plain `< 0` check, and inf
        # never arrives.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="at must be"):
                WalletDrain(at=bad, fraction=0.5)
            with pytest.raises(ValueError, match="duration must be"):
                DegradeFault(at=0.0, select=Selector.by_tier("cloud"),
                             duration=bad)
            with pytest.raises(ValueError, match="down must be"):
                FlapFault(at=0.0, select=Selector.by_tier("backhaul"),
                          down=bad, up=1.0)
            with pytest.raises(ValueError, match="up must be"):
                FlapFault(at=0.0, select=Selector.by_tier("backhaul"),
                          down=1.0, up=bad)
            with pytest.raises(ValueError, match="duration must be"):
                MaintenanceNoShow(at=0.0, duration=bad)
            with pytest.raises(ValueError, match="duration must be"):
                CustodianLapse(at=0.0, duration=bad)

    def test_keys_are_content_derived(self):
        spec = DegradeFault(
            at=units.days(3.0),
            select=Selector.by_name("campus-net"),
            duration=units.days(1.0),
        )
        same = DegradeFault(
            at=units.days(3.0),
            select=Selector.by_name("campus-net"),
            duration=units.days(1.0),
        )
        other = DegradeFault(
            at=units.days(4.0),
            select=Selector.by_name("campus-net"),
            duration=units.days(1.0),
        )
        assert spec.key() == same.key()
        assert spec.key() != other.key()

    def test_delivery_gating_classification(self):
        gating = [
            DegradeFault(at=1.0, select=Selector.by_tier("backhaul"),
                         duration=2.0),
            FlapFault(at=1.0, select=Selector.by_tier("cloud"), down=1.0,
                      up=1.0),
            WalletDrain(at=1.0, fraction=0.5),
            CustodianLapse(at=1.0, duration=2.0),
        ]
        shifting = [
            KillFault(at=1.0, select=Selector.by_tier("gateway")),
            DegradeFault(at=1.0, select=Selector.by_tier("gateway"),
                         duration=2.0),
            HotspotChurnBurst(at=1.0, k=2),
            MaintenanceNoShow(at=1.0, duration=2.0),
        ]
        assert all(s.delivery_gating for s in gating)
        assert not any(s.delivery_gating for s in shifting)
        assert FaultPlan(specs=tuple(gating)).delivery_gating
        assert not FaultPlan(specs=tuple(gating + shifting)).delivery_gating


class TestPlanInstall:
    def test_duplicate_spec_rejected_in_plan_and_across_installs(self):
        spec = WalletDrain(at=1.0, fraction=0.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(specs=(spec, spec))
        sim = Simulation(seed=0)
        sim.install_faults(FaultPlan(name="one", specs=(spec,)))
        with pytest.raises(FaultPlanError):
            sim.install_faults(FaultPlan(name="two", specs=(spec,)))

    def test_repeated_install_extends_one_controller(self):
        sim = Simulation(seed=0)
        first = sim.install_faults(
            FaultPlan(name="a", specs=(WalletDrain(at=1.0, fraction=0.1),))
        )
        second = sim.install_faults(
            FaultPlan(name="b", specs=(WalletDrain(at=2.0, fraction=0.1),))
        )
        assert first is second is sim.fault_controller
        assert first.plan_names == ["a", "b"]
        assert len(first.specs) == 2

    def test_missing_wallet_resource_is_noop(self):
        sim = Simulation(seed=0)
        controller = sim.install_faults(
            FaultPlan(specs=(WalletDrain(at=1.0, fraction=0.9),))
        )
        sim.run_until(2.0)
        assert controller.fired == 1
        assert controller.events[0][2] == "wallet-drain-skipped"

    def test_degrade_windows_overlap_compose(self):
        sim = Simulation(seed=0)
        widget = Widget(sim, name="w0")
        widget.deploy()
        sim.install_faults(
            FaultPlan(
                specs=(
                    DegradeFault(at=10.0, select=Selector.by_name("w0"),
                                 duration=30.0),
                    DegradeFault(at=20.0, select=Selector.by_name("w0"),
                                 duration=30.0),
                )
            )
        )
        sim.run_until(25.0)
        assert widget.forced_degradations == 2
        sim.run_until(45.0)  # first window closed, second still open
        assert widget.forced_degradations == 1 and widget.degraded
        sim.run_until(60.0)
        assert widget.forced_degradations == 0 and not widget.degraded


class TestMaintenanceNoShow:
    def test_renewal_replacement_defers_to_window_end(self):
        sim = Simulation(seed=5)
        first = Widget(sim, name="unit-0")
        made = []

        def factory():
            successor = Widget(sim, name=f"unit-{len(made) + 1}")
            made.append(successor)
            return successor

        renewal = RenewalProcess(
            sim,
            first,
            Exponential(scale=units.days(30.0)),
            factory,
            logistics_delay=units.days(1.0),
            stream="renewals",
        )
        first.deploy()
        renewal.start()
        failure_at = renewal._process.scheduled_at
        visit_at = failure_at + units.days(1.0)
        window_end = visit_at + units.days(40.0)
        sim.install_faults(
            FaultPlan(
                specs=(
                    MaintenanceNoShow(
                        at=visit_at - units.days(0.5),
                        duration=units.days(40.5),
                    ),
                )
            )
        )
        sim.run_until(visit_at + units.days(1.0))
        assert not made  # the visit found nobody home
        sim.run_until(window_end + units.days(0.5))
        assert len(made) == 1  # and happened right when the window closed
        assert renewal.history[0].replaced_at == pytest.approx(window_end)

    def test_suppression_window_queries(self):
        sim = Simulation(seed=0)
        controller = sim.install_faults(
            FaultPlan(specs=(MaintenanceNoShow(at=100.0, duration=50.0),))
        )
        assert not controller.maintenance_suppressed(99.0)
        assert controller.maintenance_suppressed(100.0)
        assert controller.maintenance_suppressed(149.0)
        assert not controller.maintenance_suppressed(150.0)  # half-open
        assert controller.suppression_ends(120.0) == 150.0
        assert controller.suppression_ends(99.0) == 99.0


#: (spec, its literal ``to_dict`` entry): every kind, each optional
#: field at and off its default.  This is the canonical form the serve
#: cache digest and the shard ``task_digest`` hash.
CANONICAL_FORMS = [
    pytest.param(
        KillFault(at=5.0, select=Selector.by_tier("gateway")),
        {"kind": "kill", "at_s": 5.0,
         "select": {"by": "tier", "tier": "gateway"}},
        id="kill-defaults",
    ),
    pytest.param(
        KillFault(at=5.0, select=Selector(), reason="fiber-cut",
                  mode="retire"),
        {"kind": "kill", "at_s": 5.0, "select": {"by": "tier"},
         "reason": "fiber-cut", "mode": "retire"},
        id="kill-reason-mode",
    ),
    pytest.param(
        KillFault(at=1.5, select=Selector.by_name("a", "b")),
        {"kind": "kill", "at_s": 1.5,
         "select": {"by": "name", "names": ["a", "b"]}},
        id="kill-by-name",
    ),
    pytest.param(
        KillFault(at=2.0, select=Selector.k_random(
            2, tier="gateway", where=(("owner", "city"), ("technology", "lora"))
        )),
        {"kind": "kill", "at_s": 2.0,
         "select": {"by": "k-random", "tier": "gateway", "k": 2,
                    "where": {"owner": "city", "technology": "lora"}}},
        id="kill-k-random-where",
    ),
    pytest.param(
        DegradeFault(at=3.0, select=Selector.blast_radius(1), duration=4.0),
        {"kind": "degrade", "at_s": 3.0, "duration_s": 4.0,
         "select": {"by": "blast-radius", "k": 1}},
        id="degrade",
    ),
    pytest.param(
        FlapFault(at=1.0, select=Selector.by_tier("backhaul"), down=2.0,
                  up=3.0),
        {"kind": "flap", "at_s": 1.0, "down_s": 2.0, "up_s": 3.0,
         "cycles": 1, "select": {"by": "tier", "tier": "backhaul"}},
        id="flap-default-cycles",
    ),
    pytest.param(
        FlapFault(at=1.0, select=Selector.by_tier("backhaul"), down=2.0,
                  up=3.0, cycles=4),
        {"kind": "flap", "at_s": 1.0, "down_s": 2.0, "up_s": 3.0,
         "cycles": 4, "select": {"by": "tier", "tier": "backhaul"}},
        id="flap-cycles",
    ),
    pytest.param(
        HotspotChurnBurst(at=7.0, k=1),
        {"kind": "churn-burst", "at_s": 7.0, "k": 1},
        id="churn-burst-default-k",
    ),
    pytest.param(
        HotspotChurnBurst(at=7.0, k=6),
        {"kind": "churn-burst", "at_s": 7.0, "k": 6},
        id="churn-burst",
    ),
    pytest.param(
        WalletDrain(at=8.0, fraction=0.5),
        {"kind": "wallet-drain", "at_s": 8.0, "fraction": 0.5},
        id="wallet-drain-fraction",
    ),
    pytest.param(
        WalletDrain(at=8.0, credits=7, resource="dc-wallet"),
        {"kind": "wallet-drain", "at_s": 8.0, "credits": 7,
         "resource": "dc-wallet"},
        id="wallet-drain-credits-resource",
    ),
    pytest.param(
        MaintenanceNoShow(at=9.0, duration=10.0),
        {"kind": "maintenance-no-show", "at_s": 9.0, "duration_s": 10.0},
        id="maintenance-no-show",
    ),
    pytest.param(
        CustodianLapse(at=11.0, duration=12.0),
        {"kind": "custodian-lapse", "at_s": 11.0, "duration_s": 12.0},
        id="custodian-lapse",
    ),
]


class TestJson:
    @pytest.mark.parametrize("spec, entry", CANONICAL_FORMS)
    def test_canonical_form_is_pinned(self, spec, entry):
        plan = FaultPlan(name="one", specs=(spec,))
        expected = {"version": 1, "name": "one", "faults": [entry]}
        # Compared as JSON text, so 1 and 1.0 differ as they do in a digest.
        assert plan.to_json() == json.dumps(expected, indent=2, sort_keys=True)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_pinned_plan_round_trips_exactly(self):
        plan = pinned_chaos_plan()
        assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan

    def test_unit_suffixes_accepted(self):
        payload = {
            "version": 1,
            "name": "suffixes",
            "faults": [
                {"kind": "wallet-drain", "at_days": 2, "fraction": 0.5},
                {"kind": "custodian-lapse", "at_years": 1, "duration_hours": 6},
            ],
        }
        plan = FaultPlan.from_dict(payload)
        assert plan.specs[0].at == units.days(2.0)
        assert plan.specs[1].at == units.years(1.0)
        assert plan.specs[1].duration == units.hours(6.0)

    def test_malformed_plans_raise_with_context(self):
        with pytest.raises(FaultPlanError, match="version"):
            FaultPlan.from_dict({"version": 99, "faults": []})
        with pytest.raises(FaultPlanError, match="faults"):
            FaultPlan.from_dict({"version": 1})
        with pytest.raises(FaultPlanError, match="unknown kind"):
            FaultPlan.from_dict(
                {"version": 1, "faults": [{"kind": "gremlin", "at_s": 1}]}
            )
        with pytest.raises(FaultPlanError, match="#0"):
            FaultPlan.from_dict(
                {"version": 1, "faults": [{"kind": "wallet-drain"}]}
            )
        # A time field needs exactly one unit suffix — zero or two fail.
        with pytest.raises(FaultPlanError, match="exactly one"):
            FaultPlan.from_dict(
                {
                    "version": 1,
                    "faults": [
                        {"kind": "wallet-drain", "at": 5, "fraction": 0.1}
                    ],
                }
            )
        with pytest.raises(FaultPlanError, match="exactly one"):
            FaultPlan.from_dict(
                {
                    "version": 1,
                    "faults": [
                        {
                            "kind": "wallet-drain",
                            "at_s": 5,
                            "at_days": 5,
                            "fraction": 0.1,
                        }
                    ],
                }
            )

    @pytest.mark.parametrize(
        "fault, parsed",
        [
            pytest.param(
                {"kind": "kill", "at_days": 2, "select": {"tier": "gateway"}},
                KillFault(at=units.days(2.0),
                          select=Selector.by_tier("gateway")),
                id="kill-without-by-reason-mode",
            ),
            pytest.param(
                {"kind": "flap", "at_hours": 1, "down_s": 60, "up_s": 120,
                 "select": {"by": "name", "names": ["gw"]}},
                FlapFault(at=units.hours(1.0), select=Selector.by_name("gw"),
                          down=60.0, up=120.0),
                id="flap-without-cycles",
            ),
            pytest.param(
                {"kind": "wallet-drain", "at_years": 1, "fraction": 1,
                 "credits": None},
                WalletDrain(at=units.years(1.0), fraction=1.0),
                id="wallet-drain-integer-fraction-null-credits",
            ),
            pytest.param(
                {"kind": "kill", "at_s": 3,
                 "select": {"by": "k-random", "k": 2, "tier": None,
                            "where": {"technology": "lora", "owner": "city"}}},
                KillFault(at=3.0, select=Selector.k_random(
                    2, where=(("owner", "city"), ("technology", "lora")))),
                id="kill-null-tier-unsorted-where",
            ),
        ],
    )
    def test_well_typed_spellings_parse(self, fault, parsed):
        plan = FaultPlan.from_dict({"version": 1, "faults": [fault]})
        assert plan.specs == (parsed,)

    @pytest.mark.parametrize(
        "fault, message",
        [
            pytest.param({"select": "x"},
                         "field 'select' must be an object, got str",
                         id="select-string"),
            pytest.param({"select": {"by": "name", "names": "gw"}},
                         "field 'select.names' must be a list of strings, "
                         "got str", id="names-string"),
            pytest.param({"select": {"by": "name", "names": [1]}},
                         "field 'select.names' must be a list of strings, "
                         "got a list holding int", id="names-int"),
            pytest.param({"select": {"where": [["technology", "lora"]]}},
                         "field 'select.where' must be an object of strings, "
                         "got list", id="where-list"),
            pytest.param({"select": {"where": {"technology": 5}}},
                         "field 'select.where' must be an object of strings, "
                         "got an object holding int", id="where-int"),
            pytest.param({"select": {"by": "k-random", "k": 2.7}},
                         "field 'select.k' must be an integer, got 2.7",
                         id="selector-k-float"),
            pytest.param({"select": {"by": "k-random", "k": True}},
                         "field 'select.k' must be an integer, got bool",
                         id="selector-k-bool"),
            pytest.param({"select": {"by": "psychic"}},
                         "field 'select': unknown selector mode 'psychic'",
                         id="selector-bad-mode"),
            pytest.param({"select": {"tire": "gateway"}},
                         "unknown field(s) ['select.tire']",
                         id="selector-unknown-field"),
            pytest.param({"reason": 5},
                         "field 'reason' must be a string, got int",
                         id="reason-int"),
            pytest.param({"colour": "red"}, "unknown field(s) ['colour']",
                         id="unknown-field"),
            pytest.param({"at_s": math.nan},
                         "field 'at_s' must be a finite number, got nan",
                         id="at-nan"),
            pytest.param({"at_s": -math.inf},
                         "field 'at_s' must be a finite number, got -inf",
                         id="at-minus-inf"),
            pytest.param({"at_s": True},
                         "field 'at_s' must be a finite number, got bool",
                         id="at-bool"),
            pytest.param({"at_s": 10**400},
                         "field 'at_s' must be a finite number, got int",
                         id="at-past-float-range"),
            pytest.param({"at_s": "5"},
                         "field 'at_s' must be a finite number, got str",
                         id="at-string"),
        ],
    )
    def test_ill_typed_fields_are_refused(self, fault, message):
        kill = {"kind": "kill", "at_s": 5.0, "select": {"by": "tier"}}
        kill.update(fault)
        with pytest.raises(FaultPlanError) as caught:
            FaultPlan.from_dict({"version": 1, "faults": [
                {"kind": "wallet-drain", "at_s": 1.0, "fraction": 0.5},
                kill,
            ]})
        assert str(caught.value).startswith(f"fault #1 (kill): {message}")

    @pytest.mark.parametrize(
        "fault, message",
        [
            pytest.param({"kind": "churn-burst", "at_s": 1, "k": 2.7},
                         " (churn-burst): field 'k' must be an integer, "
                         "got 2.7", id="churn-k-float"),
            pytest.param({"kind": "wallet-drain", "at_s": 1, "credits": 1.5},
                         " (wallet-drain): field 'credits' must be an "
                         "integer, got 1.5", id="credits-float"),
            pytest.param({"kind": "custodian-lapse", "at_s": 1,
                          "duration_s": math.inf},
                         " (custodian-lapse): field 'duration_s' must be a "
                         "finite number, got inf", id="duration-inf"),
            pytest.param({"kind": "flap", "at_s": 1, "down_s": 1, "up_s": 1,
                          "cycles": 2.0, "select": {}},
                         " (flap): field 'cycles' must be an integer, got 2.0",
                         id="cycles-float"),
            pytest.param({"kind": "degrade", "at_s": 1, "duration_s": 1},
                         " (degrade): missing field 'select'",
                         id="degrade-without-select"),
            pytest.param({"kind": "maintenance-no-show", "at_years": 1e308,
                          "duration_s": 1},
                         " (maintenance-no-show): at must be non-negative and "
                         "finite, got inf", id="at-overflows-to-inf"),
            pytest.param({"kind": []}, ": unknown kind []", id="kind-list"),
        ],
    )
    def test_every_kind_is_strict(self, fault, message):
        with pytest.raises(FaultPlanError) as caught:
            FaultPlan.from_dict({"version": 1, "faults": [fault]})
        assert str(caught.value).startswith(f"fault #0{message}")

    def test_plan_level_fields_are_strict(self):
        with pytest.raises(FaultPlanError, match="version"):
            FaultPlan.from_dict({"version": True, "faults": []})
        with pytest.raises(FaultPlanError, match="field 'name' must be a string"):
            FaultPlan.from_dict({"version": 1, "name": 5, "faults": []})
        with pytest.raises(FaultPlanError, match=r"unknown plan field\(s\)"):
            FaultPlan.from_dict({"version": 1, "faults": [], "fualts": []})

    def test_load_plan_from_disk(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(pinned_chaos_plan().to_json())
        assert load_plan(str(path)) == pinned_chaos_plan()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FaultPlanError, match="invalid JSON"):
            load_plan(str(bad))


def _sorted_pairs(pairs):
    return tuple(sorted(pairs.items()))


NAMES = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8)
TIMES = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
SPANS = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)
SELECTORS = st.one_of(
    st.builds(Selector.by_name, NAMES, NAMES),
    st.builds(Selector, by=st.just("tier"), tier=st.none() | NAMES,
              names=st.lists(NAMES, max_size=2).map(tuple),
              where=st.dictionaries(NAMES, NAMES, max_size=2).map(_sorted_pairs)),
    st.builds(Selector, by=st.sampled_from(["k-random", "blast-radius"]),
              tier=st.none() | NAMES, k=st.integers(1, 10**6)),
)
SPECS = st.one_of(
    st.builds(KillFault, at=TIMES, select=SELECTORS, reason=NAMES,
              mode=st.sampled_from(["fail", "retire"])),
    st.builds(DegradeFault, at=TIMES, select=SELECTORS, duration=SPANS),
    st.builds(FlapFault, at=TIMES, select=SELECTORS, down=SPANS, up=SPANS,
              cycles=st.integers(1, 100)),
    st.builds(HotspotChurnBurst, at=TIMES, k=st.integers(1, 1000)),
    st.builds(WalletDrain, at=TIMES, fraction=st.floats(0.0, 1.0),
              resource=NAMES),
    st.builds(WalletDrain, at=TIMES, credits=st.integers(0, 2**62)),
    st.builds(MaintenanceNoShow, at=TIMES, duration=SPANS),
    st.builds(CustodianLapse, at=TIMES, duration=SPANS),
)


@settings(deadline=None, max_examples=200)
@given(name=NAMES, specs=st.lists(SPECS, max_size=6, unique_by=lambda s: s.key()))
def test_every_valid_plan_round_trips(name, specs):
    plan = FaultPlan(name=name, specs=tuple(specs))
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan
