"""Tests for repro.net.gateway."""

import pytest

from repro.core import units
from repro.core.policy import GatewayRole
from repro.net import (
    CampusBackhaul,
    CloudEndpoint,
    DataCreditWallet,
    OwnedGateway,
    Position,
    ThirdPartyGateway,
    migrate_devices,
)
from repro.radio import credit_units, ieee802154
from repro.radio.lora import LoRaParameters, suburban_path_loss


class RouteLoggingEndpoint(CloudEndpoint):
    """An endpoint that also logs the route of every accepted batch."""

    def __init__(self, sim):
        super().__init__(sim)
        self.routes = []

    def deliver_many(self, sources, now, via_gateway, via_backhaul):
        accepted = super().deliver_many(sources, now, via_gateway, via_backhaul)
        if accepted:
            self.routes.extend((s, via_gateway, via_backhaul) for s in sources)
        return accepted


def owned_stack(sim):
    cloud = RouteLoggingEndpoint(sim)
    cloud.deploy()
    backhaul = CampusBackhaul(sim)
    backhaul.add_dependency(cloud)
    backhaul.deploy()
    gateway = OwnedGateway(
        sim, spec=ieee802154.default_spec(), path_loss=ieee802154.urban_path_loss()
    )
    gateway.add_dependency(backhaul)
    gateway.deploy()
    return cloud, backhaul, gateway


class TestForwarding:
    def test_receive_forwards_to_cloud(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        assert gateway.receive("dev-1", 1)
        assert gateway.packets_forwarded == 1
        assert cloud.routes == [("dev-1", gateway.name, backhaul.name)]

    def test_blocklist_drops(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        gateway.block("bad-dev")
        assert not gateway.receive("bad-dev", 1)
        assert gateway.drops_blocklist == 1
        assert cloud.delivered_count == 0
        gateway.unblock("bad-dev")
        assert gateway.receive("bad-dev", 1)

    def test_dead_gateway_hears_nothing(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        gateway.fail()
        assert not gateway.receive("dev-1", 1)
        assert gateway.packets_received == 0

    def test_backhaul_outage_drops(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        backhaul.up = False
        assert not gateway.receive("dev-1", 1)
        assert gateway.drops_backhaul == 1

    def test_dead_backhaul_drops(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        backhaul.fail()
        assert not gateway.receive("dev-1", 1)
        assert gateway.drops_backhaul == 1

    def test_endpoint_down_drop_counted(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        cloud.fail()
        assert not gateway.receive("dev-1", 1)
        assert gateway.drops_endpoint == 1

    def test_second_backhaul_used_when_first_down(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        second = CampusBackhaul(sim)
        second.add_dependency(cloud)
        second.deploy()
        gateway.add_dependency(second)
        backhaul.up = False
        assert gateway.receive("dev-1", 1)
        assert cloud.routes == [("dev-1", gateway.name, second.name)]


class TestCommissioning:
    def test_router_only_cheap(self, sim):
        __, __, gateway = owned_stack(sim)
        assert gateway.commissioning_hours() == 1.0

    def test_stateful_scales_with_dependents(self, sim):
        cloud, backhaul, gateway = owned_stack(sim)
        gateway.role = GatewayRole.STATEFUL_CONTROLLER

        class Dep:
            pass

        gateway.dependents = [Dep() for _ in range(8)]
        assert gateway.commissioning_hours() == 1.0 + 2.0


class TestThirdParty:
    def _hotspot(self, sim, departs_at=None, wallet=None):
        lora = LoRaParameters(spreading_factor=10)
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        backhaul = CampusBackhaul(sim)
        backhaul.add_dependency(cloud)
        backhaul.deploy()
        hotspot = ThirdPartyGateway(
            sim,
            spec=lora.spec(),
            path_loss=suburban_path_loss(),
            departs_at=departs_at,
            asn=7922,
        )
        hotspot.add_dependency(backhaul)
        if wallet is not None:
            hotspot.wallet = wallet
        hotspot.deploy()
        return cloud, hotspot

    def test_owner_churn_retires(self, sim):
        __, hotspot = self._hotspot(sim, departs_at=units.years(3.0))
        sim.run_until(units.years(2.9))
        assert hotspot.alive
        sim.run_until(units.years(3.1))
        assert not hotspot.alive
        assert hotspot.state.value == "retired"

    def test_wallet_gates_forwarding(self, sim):
        wallet = DataCreditWallet()
        wallet.provision(2)
        cloud, hotspot = self._hotspot(sim, wallet=wallet)
        assert hotspot.receive("dev-1", 1)
        assert hotspot.receive("dev-1", 1)
        assert not hotspot.receive("dev-1", 1)  # broke
        assert hotspot.drops_unpaid == 1
        assert cloud.delivered_count == 2

    def test_large_packet_costs_more_credits(self, sim):
        wallet = DataCreditWallet()
        wallet.provision(3)
        cloud, hotspot = self._hotspot(sim, wallet=wallet)
        assert hotspot.receive("dev-1", credit_units(50))  # 3 credits
        assert wallet.balance == 0

    def test_asn_tagged(self, sim):
        __, hotspot = self._hotspot(sim)
        assert hotspot.tags["asn"] == "7922"


class TestMigration:
    def _two_gateways(self, sim):
        cloud, backhaul, old = owned_stack(sim)
        new = OwnedGateway(
            sim, spec=ieee802154.default_spec(), path_loss=ieee802154.urban_path_loss()
        )
        new.add_dependency(backhaul)
        new.deploy()
        return old, new

    def test_migrate_moves_dependents(self, sim):
        from repro.core.entity import Entity

        class Dev(Entity):
            TIER = "device"

        old, new = self._two_gateways(sim)
        devices = [Dev(sim) for _ in range(3)]
        for d in devices:
            d.add_dependency(old)
        moved = migrate_devices(old, new)
        assert len(moved) == 3
        assert all(new in d.depends_on and old not in d.depends_on for d in devices)

    def test_instance_bound_devices_stranded(self, sim):
        from repro.core.entity import Entity

        class Dev(Entity):
            TIER = "device"

        old, new = self._two_gateways(sim)
        device = Dev(sim)
        device.add_dependency(old)
        moved = migrate_devices(old, new, rehome_allowed=False)
        assert moved == []
        assert old in device.depends_on
