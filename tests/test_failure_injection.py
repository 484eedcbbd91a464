"""Failure-injection tests: chaos scenarios across the whole stack.

Each test wounds a running deployment mid-run — now declaratively,
through :mod:`repro.faults` plans rather than bespoke lambdas — and
checks both the service impact and the *accounting*: losses must land in
the right counters, reachability views must agree with delivery reality,
and recovery must restore service.  Several tests additionally run the
:class:`~repro.faults.InvariantAuditor` strict, so a wounding that
corrupts internal bookkeeping fails loudly rather than washing into an
aggregate.
"""

from repro.core import Simulation, units
from repro.energy import Capacitor, CathodicProtectionSource, HarvestingSystem
from repro.faults import (
    FaultPlan,
    FlapFault,
    InvariantAuditor,
    KillFault,
    Selector,
)
from repro.net import (
    CampusBackhaul,
    CloudEndpoint,
    EdgeDevice,
    HeliumNetwork,
    Network,
    OwnedGateway,
    Position,
    associate_by_coverage,
)
from repro.radio import ieee802154


def build(sim, n_devices=4, n_gateways=2):
    cloud = CloudEndpoint(sim)
    backhaul = CampusBackhaul(sim)
    backhaul.add_dependency(cloud)
    gateways = []
    for index in range(n_gateways):
        gateway = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(30.0 * index, 0.0),
        )
        gateway.add_dependency(backhaul)
        gateways.append(gateway)
    devices = []
    for index in range(n_devices):
        device = EdgeDevice(
            sim,
            technology="802.15.4",
            spec=ieee802154.default_spec(),
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.hours(6.0),
            position=Position(10.0 + 10.0 * index, 5.0),
        )
        devices.append(device)
    associate_by_coverage(devices, gateways, max_gateways_per_device=2)
    net = Network(
        sim=sim, endpoint=cloud, backhauls=[backhaul], gateways=gateways,
        devices=devices,
    )
    net.deploy_all()
    return net


class TestGatewayFailureInjection:
    def test_all_gateways_down_then_recovered_by_new_deploy(self):
        sim = Simulation(seed=1)
        net = build(sim)
        sim.install_faults(
            FaultPlan(
                name="gateway-wipeout",
                specs=(
                    KillFault(
                        at=units.months(2.0), select=Selector.by_tier("gateway")
                    ),
                ),
            )
        )

        def redeploy():
            gateway = OwnedGateway(
                sim,
                spec=ieee802154.default_spec(),
                path_loss=ieee802154.urban_path_loss(),
                position=Position(20.0, 0.0),
            )
            gateway.add_dependency(net.backhauls[0])
            gateway.deploy()
            for device in net.devices:
                device.add_dependency(gateway)
            net.gateways.append(gateway)

        sim.call_at(units.months(4.0), redeploy)
        sim.run_until(units.years(1.0))
        assert not any(g.alive for g in net.gateways[:2])
        report = net.endpoint.weekly_uptime(0.0, units.years(1.0))
        # Dark for ~2 months of 12: uptime ~10/12.
        assert 0.7 < report.uptime < 0.95
        assert report.longest_gap_weeks >= 7

    def test_loss_counters_during_outage(self):
        sim = Simulation(seed=2)
        net = build(sim)
        auditor = InvariantAuditor(sim, every=200, strict=True).install()
        sim.install_faults(
            FaultPlan(
                specs=(
                    KillFault(
                        at=units.months(1.0), select=Selector.by_tier("gateway")
                    ),
                )
            )
        )
        sim.run_until(units.months(2.0))
        auditor.check_now()
        summary = net.delivery_summary()
        assert summary.no_gateway > 0
        assert summary.attempts == (
            summary.delivered + summary.energy_denied + summary.no_gateway
            + summary.radio_lost + summary.dropped_at_gateway
        )


class TestBackhaulFailureInjection:
    def test_backhaul_death_strands_but_devices_keep_trying(self):
        sim = Simulation(seed=3)
        net = build(sim)
        sim.install_faults(
            FaultPlan(
                specs=(
                    KillFault(
                        at=units.months(3.0),
                        select=Selector.by_name(net.backhauls[0].name),
                        reason="backhaul-cut",
                    ),
                )
            )
        )
        sim.run_until(units.months(6.0))
        assert all(d.alive for d in net.devices)
        assert net.hierarchy.stranded_devices() == net.hierarchy.tier("device")
        summary = net.delivery_summary()
        assert summary.dropped_at_gateway > 0  # heard, not forwarded

    def test_flapping_backhaul_partial_uptime(self):
        sim = Simulation(seed=4)
        net = build(sim)
        # Odd months down, even months up — the old hand-rolled up-toggle
        # loop, now one declarative (and delivery-gating) flap spec.
        plan = FaultPlan(
            name="backhaul-flap",
            specs=(
                FlapFault(
                    at=units.months(1.0),
                    select=Selector.by_tier("backhaul"),
                    down=units.months(1.0),
                    up=units.months(1.0),
                    cycles=6,
                ),
            ),
        )
        assert plan.delivery_gating
        controller = sim.install_faults(plan)
        sim.run_until(units.years(1.0))
        # 6 down edges + 6 restores executed.
        assert controller.fired == 12
        summary = net.delivery_summary()
        assert summary.dropped_at_gateway > 0
        assert summary.delivered > 0


class TestEndpointFailureInjection:
    def test_cloud_outage_counts_at_gateway(self):
        sim = Simulation(seed=5)
        net = build(sim)
        sim.install_faults(
            FaultPlan(
                specs=(
                    KillFault(
                        at=units.months(1.0), select=Selector.by_tier("cloud")
                    ),
                )
            )
        )
        sim.run_until(units.months(3.0))
        assert not net.endpoint.alive
        assert sum(g.drops_endpoint for g in net.gateways) > 0


class TestEnergyStarvationInjection:
    def test_starved_device_recovers_with_harvest(self):
        sim = Simulation(seed=6)
        net = build(sim, n_devices=1)
        device = net.devices[0]
        # Retrofit a harvester below the sleep floor: net-negative energy.
        # (Environment mutation, not a component fault — stays hand-rolled.)
        device.power = HarvestingSystem(
            source=CathodicProtectionSource(nominal_power_w=0.5e-6),
            storage=Capacitor(capacity_j=0.02, stored_j=0.0),
        )
        device._last_energy_step = sim.now
        sim.run_until(units.days(10.0))
        assert device.energy_denied > 0
        # Now the environment improves 100x: the node must come back.
        device.power.source = CathodicProtectionSource(nominal_power_w=2e-4)
        denied_before = device.energy_denied
        delivered_before = device.delivered
        sim.run_until(units.days(30.0))
        assert device.delivered > delivered_before
        late_denials = device.energy_denied - denied_before
        assert late_denials < 20  # a brief refill tail at most


class TestHeliumChaosInjection:
    def test_as_outage_reroutes_through_other_hotspots(self):
        sim = Simulation(seed=7)
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        network = HeliumNetwork(
            sim, cloud, extent_m=2_000.0, initial_hotspots=30
        )
        network.wallet.provision(500_000)
        sim.resources["helium"] = network  # let the auditor cross-check
        auditor = InvariantAuditor(sim, every=200, strict=True).install()
        from repro.radio.lora import LoRaParameters

        lora = LoRaParameters(spreading_factor=10)
        device = EdgeDevice(
            sim,
            technology="lora",
            spec=lora.spec(),
            airtime_s=lora.airtime_s(24),
            report_interval=units.hours(6.0),
            position=Position(1_000.0, 1_000.0),
        )
        device.gateway_index = network.live_index()
        device.deploy()
        sim.run_until(units.months(1.0))
        delivered_before = device.delivered
        # Kill the single biggest AS; other ASes' hotspots still carry.
        # The plan is installed *mid-run* — selectors resolve at fire
        # time, so naming the backhaul that exists right now is exact.
        from repro.analysis import survival_correlation_groups

        groups = survival_correlation_groups(
            [h.asn for h in network.live_hotspots()]
        )
        biggest = max(groups, key=groups.get)
        doomed = network.backhauls[biggest]
        sim.install_faults(
            FaultPlan(
                name="as-outage",
                specs=(
                    KillFault(
                        at=sim.now,
                        select=Selector.by_name(f"as{biggest}"),
                        reason=f"as{biggest}-outage",
                    ),
                ),
            )
        )
        sim.run_until(units.months(3.0))
        auditor.check_now()
        # The struck backhaul is dead (a *new* arrival on the same AS may
        # have re-created the name — that resurrection is the network's
        # churn model working, not the fault failing).
        assert not doomed.alive
        assert device.delivered > delivered_before
