"""Tests for repro.net.device."""

import pytest

from repro.core import units
from repro.core.policy import AttachmentPolicy
from repro.energy import Capacitor, CathodicProtectionSource, HarvestingSystem
from repro.net import (
    CampusBackhaul,
    CloudEndpoint,
    EdgeDevice,
    GatewayIndex,
    OwnedGateway,
    Position,
)
from repro.radio import ieee802154
from repro.reliability import Deterministic


def build(sim, n_gateways=1, gateway_positions=None, **device_kwargs):
    cloud = CloudEndpoint(sim)
    cloud.deploy()
    backhaul = CampusBackhaul(sim)
    backhaul.add_dependency(cloud)
    backhaul.deploy()
    gateways = []
    positions = gateway_positions or [Position(10.0 * i, 0.0) for i in range(n_gateways)]
    for position in positions:
        gateway = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=position,
        )
        gateway.add_dependency(backhaul)
        gateway.deploy()
        gateways.append(gateway)
    defaults = dict(
        technology="802.15.4",
        spec=ieee802154.default_spec(),
        airtime_s=ieee802154.airtime_s(24),
        report_interval=units.HOUR,
        position=Position(5.0, 0.0),
    )
    defaults.update(device_kwargs)
    device = EdgeDevice(sim, **defaults)
    for gateway in gateways:
        device.add_dependency(gateway)
    device.deploy()
    return cloud, gateways, device


class TestReporting:
    def test_delivers_on_schedule(self, sim):
        cloud, gateways, device = build(sim)
        sim.run_until(units.days(1.0))
        assert device.attempts == 24
        assert device.delivered >= 22  # near-field link, rare shadowing loss
        assert cloud.delivered_count == device.delivered

    def test_no_gateway_counted(self, sim):
        cloud, gateways, device = build(sim)
        gateways[0].fail()
        sim.run_until(units.days(1.0))
        assert device.no_gateway == device.attempts
        assert device.delivered == 0

    def test_distance_causes_radio_loss(self, sim):
        cloud, gateways, device = build(
            sim, gateway_positions=[Position(5000.0, 0.0)]
        )
        sim.run_until(units.days(2.0))
        assert device.radio_lost > 0.9 * device.attempts

    def test_dead_device_stops_reporting(self, sim):
        cloud, gateways, device = build(
            sim, lifetime_model=Deterministic(units.days(1.0) + 1.0)
        )
        sim.run_until(units.days(3.0))
        assert device.attempts == 24
        assert not device.alive

    def test_loss_breakdown_sums(self, sim):
        cloud, gateways, device = build(sim)
        sim.run_until(units.days(2.0))
        breakdown = device.loss_breakdown()
        assert breakdown["attempts"] == (
            breakdown["delivered"]
            + breakdown["energy_denied"]
            + breakdown["no_gateway"]
            + breakdown["radio_lost"]
        )

    def test_delivery_rate(self, sim):
        cloud, gateways, device = build(sim)
        sim.run_until(units.days(1.0))
        assert device.delivery_rate == device.delivered / device.attempts

    def test_delivery_rate_nan_before_attempts(self, sim):
        # Never-scheduled is not always-failed: the rate is NaN, not 0.0,
        # so fleet means cannot silently absorb idle devices.
        import math

        cloud, gateways, device = build(sim)
        assert math.isnan(device.delivery_rate)


class TestEnergyIntegration:
    def test_harvesting_device_sustains_hourly(self, sim):
        power = HarvestingSystem(
            source=CathodicProtectionSource(),
            storage=Capacitor(capacity_j=2.0, stored_j=1.0),
        )
        cloud, gateways, device = build(sim, power=power)
        sim.run_until(units.days(7.0))
        assert device.energy_denied == 0
        assert device.delivered > 0

    def test_starved_device_denied(self, sim):
        power = HarvestingSystem(
            source=CathodicProtectionSource(nominal_power_w=1e-8),
            storage=Capacitor(capacity_j=0.001, stored_j=0.001),
        )
        cloud, gateways, device = build(sim, power=power)
        sim.run_until(units.days(7.0))
        assert device.energy_denied > 0.8 * device.attempts


class TestAttachmentPolicy:
    def test_any_compatible_uses_backup_gateway(self, sim):
        cloud, gateways, device = build(
            sim,
            gateway_positions=[Position(5.0, 0.0), Position(20.0, 0.0)],
        )
        gateways[0].fail()
        sim.run_until(units.days(1.0))
        assert device.delivered > 0  # re-homed to the second gateway

    def test_instance_bound_stranded_by_first_gateway(self, sim):
        cloud, gateways, device = build(
            sim,
            gateway_positions=[Position(5.0, 0.0), Position(20.0, 0.0)],
            attachment=AttachmentPolicy.INSTANCE_BOUND,
        )
        gateways[0].fail()
        sim.run_until(units.days(1.0))
        assert device.delivered == 0
        assert device.no_gateway == device.attempts

    def test_index_extends_candidates(self, sim):
        cloud, gateways, device = build(sim, n_gateways=1)
        extra = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(6.0, 0.0),
        )
        extra.add_dependency(gateways[0].depends_on[0])
        extra.deploy()
        device.gateway_index = GatewayIndex(sim, lambda: [extra], cell_size_m=50.0)
        gateways[0].fail()
        sim.run_until(units.days(1.0))
        assert device.delivered > 0

    def test_index_ignored_when_instance_bound(self, sim):
        cloud, gateways, device = build(
            sim, attachment=AttachmentPolicy.INSTANCE_BOUND
        )
        extra = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(6.0, 0.0),
        )
        extra.deploy()
        device.gateway_index = GatewayIndex(sim, lambda: [extra], cell_size_m=50.0)
        gateways[0].fail()
        sim.run_until(units.days(1.0))
        assert device.delivered == 0

    def test_candidates_sorted_by_distance(self, sim):
        cloud, gateways, device = build(
            sim,
            gateway_positions=[Position(100.0, 0.0), Position(6.0, 0.0)],
        )
        candidates = device.candidate_gateways()
        assert candidates[0].position.x == 6.0

    def test_technology_mismatch_excluded(self, sim):
        cloud, gateways, device = build(sim)
        from repro.radio.lora import LoRaParameters, suburban_path_loss
        from repro.net import ThirdPartyGateway

        lora_gw = ThirdPartyGateway(
            sim, spec=LoRaParameters().spec(), path_loss=suburban_path_loss()
        )
        lora_gw.deploy()
        device.add_dependency(lora_gw)
        assert lora_gw not in device.candidate_gateways()


class TestLinkTableSurvival:
    """A topology bump rebuilds the link table only when it can change it."""

    def _layout(self, sim, distances):
        """A device at the origin, discovering ``distances`` gateways."""
        cloud, _, device = build(sim, n_gateways=0, position=Position(0.0, 0.0))
        backhaul = cloud.dependents[0]
        roster = []

        def add(x, y):
            gateway = OwnedGateway(
                sim,
                spec=ieee802154.default_spec(),
                path_loss=ieee802154.urban_path_loss(),
                position=Position(x, y),
            )
            gateway.add_dependency(backhaul)
            gateway.deploy()
            roster.append(gateway)
            return gateway

        for distance in distances:
            add(0.0, distance)
        device.gateway_index = GatewayIndex(
            sim, lambda: [g for g in roster if g.alive], cell_size_m=50.0
        )
        rebuilds = []
        fresh_links = device.fresh_links

        def counted():
            rebuilds.append(sim.topology_version)
            return fresh_links()

        device.fresh_links = counted
        device._report()
        assert len(rebuilds) == 1
        return device, add, rebuilds

    def test_far_deploy_keeps_the_table(self, sim):
        device, add, rebuilds = self._layout(sim, (10.0, 20.0, 30.0, 40.0))
        table = device._links
        add(300.0, 0.0)
        device._report()
        assert rebuilds == rebuilds[:1]
        assert device._links is table
        assert device._links == type(device).fresh_links(device)

    def test_near_deploy_rebuilds(self, sim):
        device, add, rebuilds = self._layout(sim, (10.0, 20.0, 30.0, 40.0))
        near = add(15.0, 0.0)
        device._report()
        assert len(rebuilds) == 2
        assert [g for g, _, _ in device._links].index(near) == 1

    def test_deploy_at_the_reach_rebuilds(self, sim):
        """Strictly farther: a change exactly at the last entry's distance
        could win a tie, so it rebuilds (here the table comes out equal,
        because the newcomer is later in provider order)."""
        device, add, rebuilds = self._layout(sim, (10.0, 20.0, 30.0, 40.0))
        table = device._links
        add(40.0, 0.0)
        device._report()
        assert len(rebuilds) == 2
        assert device._links == table

    def test_partial_table_rebuilds_on_any_change(self, sim):
        device, add, rebuilds = self._layout(sim, (10.0, 20.0))
        add(300.0, 0.0)
        device._report()
        assert len(rebuilds) == 2
        assert len(device._links) == 3

    def test_unrelated_bump_keeps_the_table(self, sim):
        device, add, rebuilds = self._layout(sim, (10.0, 20.0))
        device.force_degrade()
        device.restore_degrade()
        device._report()
        assert rebuilds == rebuilds[:1]

    def test_dependency_state_change_rebuilds(self, sim):
        device, add, rebuilds = self._layout(sim, (10.0, 20.0, 30.0, 40.0))
        static = add(300.0, 300.0)
        device.add_dependency(static)
        device._report()
        assert len(rebuilds) == 2  # a new dependency
        static.force_degrade()
        device._report()
        assert len(rebuilds) == 3  # a dependency stopped hearing


class TestValidation:
    def test_bad_report_interval(self, sim):
        with pytest.raises(ValueError):
            EdgeDevice(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=0.001,
                report_interval=0.0,
            )

    def test_bad_airtime(self, sim):
        with pytest.raises(ValueError):
            EdgeDevice(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=0.0,
                report_interval=units.HOUR,
            )

    def test_negative_payload_rejected(self, sim):
        with pytest.raises(ValueError, match="payload_bytes"):
            EdgeDevice(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=0.001,
                report_interval=units.HOUR,
                payload_bytes=-1,
            )

    def test_packet_contents(self, sim):
        cloud, gateways, device = build(sim)
        packet = device.make_packet()
        assert packet.source == device.name
        assert packet.payload_bytes == 24
        assert packet.signed_with.startswith("factory-key:")
        assert packet.reading is not None
