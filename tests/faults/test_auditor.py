"""The auditor must catch exactly the corruption it claims to catch.

Each test wounds one internal invariant directly — a counter, a cache, a
clock — and asserts the matching check trips, names the right entity,
and (in strict mode) raises rather than collects.  A final test confirms
the auditor is read-only: an audited run executes the identical event
stream as an unaudited one.
"""

import math

import pytest

from repro.core import Simulation, units
from repro.faults import (
    InvariantAuditor,
    InvariantViolation,
    InvariantViolationError,
)
from tests.test_failure_injection import build


def _audited_testbed(seed=1, strict=False):
    sim = Simulation(seed=seed)
    net = build(sim)
    auditor = InvariantAuditor(sim, every=50, strict=strict).install()
    sim.run_until(units.days(20.0))
    return sim, net, auditor


class TestCleanRuns:
    def test_healthy_run_has_zero_violations(self):
        _, _, auditor = _audited_testbed(strict=True)
        assert auditor.audits_run > 0
        assert auditor.violations == []

    def test_install_refuses_second_hook(self):
        sim = Simulation(seed=1)
        InvariantAuditor(sim).install()
        with pytest.raises(RuntimeError, match="already has an audit hook"):
            InvariantAuditor(sim).install()

    def test_auditing_does_not_change_the_event_stream(self):
        plain = Simulation(seed=9)
        build(plain)
        plain.run_until(units.days(30.0))
        audited = Simulation(seed=9)
        net = build(audited)
        InvariantAuditor(audited, every=100, strict=True).install()
        audited.run_until(units.days(30.0))
        assert audited.executed_events == plain.executed_events
        assert audited.topology_version == plain.topology_version
        assert sum(d.delivered for d in net.devices) > 0


class TestCorruptionDetection:
    def test_gateway_counter_corruption(self):
        sim, net, auditor = _audited_testbed()
        net.gateways[0]._c_forwarded.value += 7
        found = auditor.check_now()
        checks = {(v.check, v.entity) for v in found}
        assert ("link-conservation", net.gateways[0].name) in checks
        assert ("delivery-reality", None) in checks

    def test_device_loss_accounting_corruption(self):
        sim, net, auditor = _audited_testbed()
        device = net.devices[0]
        device._c_delivered.value = device.attempts + 1
        found = auditor.check_now()
        assert any(
            v.check == "link-conservation" and v.entity == device.name
            for v in found
        )

    def test_negative_energy_detected(self):
        from repro.energy import Capacitor, CathodicProtectionSource, HarvestingSystem

        sim, net, auditor = _audited_testbed()
        device = net.devices[0]
        device.power = HarvestingSystem(
            source=CathodicProtectionSource(nominal_power_w=2e-4),
            storage=Capacitor(capacity_j=0.02, stored_j=0.01),
        )
        device.power.storage.stored_j = -0.5
        found = auditor.check_now()
        assert any(
            v.check == "energy-bounds" and v.entity == device.name
            for v in found
        )

    def test_queue_accounting_corruption(self):
        sim, _, auditor = _audited_testbed()
        sim.events._live += 3
        found = auditor.check_now()
        assert any(v.check == "queue-accounting" for v in found)
        sim.events._live -= 3  # restore so teardown stays sane

    def test_topology_version_regression(self):
        sim, _, auditor = _audited_testbed()
        sim.topology_version -= 1
        found = auditor.check_now()
        assert any(
            v.check == "monotonicity" and "topology_version" in v.detail
            for v in found
        )

    def _fresh_link_table(self, sim, device):
        device._links = device.fresh_links()  # make the table fresh
        device._links_version = sim.topology_version
        assert device._links, "the testbed device should hear a gateway"
        return device._links

    def test_poisoned_candidate_cache(self):
        sim, net, auditor = _audited_testbed()
        device = net.devices[0]
        fresh = self._fresh_link_table(sim, device)
        # Wrong length is a mismatch no matter what the true answer is.
        device._links = fresh + fresh[:1]
        found = auditor.check_now()
        assert any(
            v.check == "cache-coherence" and v.entity == device.name
            for v in found
        )

    def test_poisoned_index_snapshot(self):
        from repro.net import GatewayIndex

        sim, net, auditor = _audited_testbed()
        index = GatewayIndex(
            sim, lambda: [g for g in net.gateways if g.alive], cell_size_m=50.0
        )
        net.devices[0].gateway_index = index
        index.epoch()  # take the hearing snapshot at the current version
        assert len(index._hearing) > 1
        assert auditor.check_now() == []
        index._hearing = index._hearing[1:]
        found = auditor.check_now()
        assert [(v.check, v.entity) for v in found] == [("cache-coherence", None)]
        assert "hearing snapshot" in found[0].detail

    def test_one_ulp_mean_loss_is_flagged(self):
        sim, net, auditor = _audited_testbed()
        device = net.devices[0]
        fresh = self._fresh_link_table(sim, device)
        assert auditor.check_now() == []
        gateway, distance_m, mean_loss_db = fresh[0]
        nudged = math.nextafter(mean_loss_db, math.inf)
        device._links = ((gateway, distance_m, nudged),) + fresh[1:]
        found = auditor.check_now()
        assert [(v.check, v.entity) for v in found] == [
            ("cache-coherence", device.name)
        ]
        assert repr(nudged) in found[0].detail


class TestStrictMode:
    def test_strict_raises_with_structured_violation(self):
        sim, net, auditor = _audited_testbed(strict=True)
        net.gateways[1]._c_received.value += 1
        with pytest.raises(InvariantViolationError) as excinfo:
            auditor.check_now()
        violation = excinfo.value.violation
        assert isinstance(violation, InvariantViolation)
        assert violation.check == "link-conservation"
        assert violation.entity == net.gateways[1].name
        assert violation.time == sim.now
        assert violation.entity in str(violation)

    def test_collect_mode_accumulates_instead(self):
        sim, net, auditor = _audited_testbed(strict=False)
        net.gateways[0]._c_received.value += 1
        net.gateways[1]._c_received.value += 1
        first_sweep = auditor.check_now()
        assert len(first_sweep) >= 2
        assert auditor.violations == first_sweep

    def test_violation_renders_with_time_and_entity(self):
        violation = InvariantViolation(
            check="energy-bounds", time=12.5, entity="dev-3", detail="boom"
        )
        assert str(violation) == "[energy-bounds] t=12.5 dev-3: boom"
        anonymous = InvariantViolation(
            check="queue-accounting", time=0.0, entity=None, detail="off"
        )
        assert "<simulation>" in str(anonymous)
