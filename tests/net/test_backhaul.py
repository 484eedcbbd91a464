"""Tests for repro.net.backhaul."""

import pytest

from repro.core import RandomStreams, Simulation, units
from repro.net import (
    CampusBackhaul,
    CellularBackhaul,
    FiberBackhaul,
    OpaqueBackhaul,
    OutageModel,
)


class TestOutageModel:
    def test_availability(self):
        model = OutageModel(mtbf=99.0, mttr=1.0)
        assert model.availability == pytest.approx(0.99)

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageModel(mtbf=0.0)
        with pytest.raises(ValueError):
            OutageModel(mtbf=1.0, mttr=0.0)


class TestBackhaulOutages:
    def test_outages_occur_and_recover(self, sim):
        backhaul = CampusBackhaul(sim)
        backhaul.deploy()
        sim.run_until(units.years(20.0))
        assert backhaul.outages >= 1
        assert backhaul.downtime_s > 0.0

    def test_long_run_availability_matches_model(self, sim):
        backhaul = FiberBackhaul(sim)
        backhaul.deploy()
        horizon = units.years(200.0)
        sim.run_until(horizon)
        measured = 1.0 - backhaul.downtime_s / horizon
        assert measured == pytest.approx(backhaul.outage_model.availability, abs=0.005)

    def test_carries_traffic_reflects_up_state(self, sim):
        backhaul = CampusBackhaul(sim)
        backhaul.deploy()
        assert backhaul.carries_traffic()
        backhaul.up = False
        assert not backhaul.carries_traffic()

    def test_dead_backhaul_carries_nothing(self, sim):
        backhaul = CampusBackhaul(sim)
        backhaul.deploy()
        backhaul.fail()
        assert not backhaul.carries_traffic()

    def test_no_more_outages_after_death(self, sim):
        backhaul = CampusBackhaul(sim)
        backhaul.deploy()
        sim.run_until(units.years(5.0))
        backhaul.fail()
        count = backhaul.outages
        sim.run_until(units.years(50.0))
        assert backhaul.outages == count


def _trace_labels(sim, kinds):
    """Record ``(time, label)`` of every executed event of ``kinds``."""
    seen = []

    def trace(event):
        if event.label.split(":", 1)[0] in kinds:
            seen.append((event.time, event.label))

    sim.trace_executed = trace
    return seen


class TestOutageProcess:
    def test_interleaved_backhauls_replay_scalar_draws(self):
        sim = Simulation(seed=11)
        campus = CampusBackhaul(sim, name="campus")
        opaque = OpaqueBackhaul(sim, name="opaque")
        seen = _trace_labels(sim, ("outage", "restore", "deploy"))
        campus.deploy()
        sim.call_at(units.years(1.0), opaque.deploy, label="deploy:opaque")
        horizon = units.years(10.0)
        sim.run_until(horizon)

        # Replay: one scalar draw per deploy/outage/restore, from a fresh
        # copy of the shared stream, in the order the events ran.
        stream = RandomStreams(seed=11).get("backhaul-outages")
        models = {"campus": campus.outage_model, "opaque": opaque.outage_model}

        def after(time, mean):
            return time + float(stream.exponential(mean))

        next_up = {"campus": ("outage", after(0.0, models["campus"].mtbf))}
        for time, label in seen:
            kind, name = label.split(":", 1)
            model = models[name]
            if kind != "deploy":
                assert (kind, time) == next_up[name]
            if kind == "outage":
                next_up[name] = ("restore", after(time, model.mttr))
            else:
                next_up[name] = ("outage", after(time, model.mtbf))
        # Nothing was dropped: each backhaul's next event lies past the end.
        assert all(time > horizon for _kind, time in next_up.values())
        names = [label.split(":", 1)[1] for _t, label in seen]
        switches = sum(a != b for a, b in zip(names, names[1:]))
        assert switches > 10  # the two processes really interleave
        assert campus.outages + opaque.outages == sum(
            label.startswith("outage:") for _t, label in seen
        )

    def test_killed_while_down_closes_downtime_at_restore(self, sim):
        backhaul = CampusBackhaul(sim, name="campus")
        seen = _trace_labels(sim, ("outage", "restore"))
        backhaul.deploy()
        while backhaul.up:
            assert sim.step()
        went_down = sim.now
        backhaul.fail()
        sim.run_until(units.years(10.0))

        assert [label for _t, label in seen] == ["outage:campus", "restore:campus"]
        restored = seen[1][0]
        assert backhaul.downtime_s == restored - went_down
        assert backhaul.outages == 1
        assert not backhaul.carries_traffic()


class TestCellularSunset:
    def test_sunset_retires_backhaul(self, sim):
        cell = CellularBackhaul(sim, generation="3G", sunset_at=units.years(20.0))
        cell.deploy()
        sim.run_until(units.years(19.0))
        assert cell.alive
        sim.run_until(units.years(21.0))
        assert not cell.alive
        assert cell.state.value == "retired"

    def test_sunset_recorded(self, sim):
        cell = CellularBackhaul(sim, generation="2G", sunset_at=units.years(5.0))
        cell.deploy()
        sim.run_until(units.years(6.0))
        sunsets = sim.records("sunset")
        assert len(sunsets) == 1
        assert sunsets[0].data["generation"] == "2G"

    def test_no_sunset_lives_on(self, sim):
        cell = CellularBackhaul(sim, sunset_at=None)
        cell.deploy()
        sim.run_until(units.years(60.0))
        assert cell.alive

    def test_fiber_has_no_sunset(self, sim):
        fiber = FiberBackhaul(sim)
        fiber.deploy()
        sim.run_until(units.years(80.0))
        assert fiber.alive


class TestEconomicsHooks:
    def test_annual_costs(self, sim):
        assert FiberBackhaul(sim).annual_cost_usd() == 1200.0
        assert CellularBackhaul(sim).annual_cost_usd() == 240.0
        assert CampusBackhaul(sim).annual_cost_usd() == 0.0

    def test_opaque_asn_tag(self, sim):
        backhaul = OpaqueBackhaul(sim, asn=7922)
        assert backhaul.tags["asn"] == "7922"

    def test_reliability_ordering(self, sim):
        # Campus/fiber should be more available than a residential ISP.
        fiber = FiberBackhaul(sim)
        opaque = OpaqueBackhaul(sim)
        assert (
            fiber.outage_model.availability > opaque.outage_model.availability
        )
