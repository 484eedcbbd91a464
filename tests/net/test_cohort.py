"""Tests for repro.net.cohort: the batched path must be bit-identical.

The cohort machinery's entire claim is that vectorising the duty cycle
changes *nothing* observable: array draws consume RNG streams exactly
like repeated scalar draws, vectorised sources produce the same floats
as their scalar ``power_at``, and :class:`CohortPower` walks the same
IEEE-754 trajectory as one scalar ``HarvestingSystem`` per member.
These tests pin each layer of that claim independently, so a future
numpy or refactor regression is caught at the layer that broke.
"""

import numpy as np
import pytest

from repro.core import units
from repro.energy.budget import TaskProfile
from repro.energy.harvester import HarvestingSystem
from repro.energy.sources import (
    CathodicProtectionSource,
    SolarSource,
    ThermalGradientSource,
    VibrationSource,
)
from repro.energy.storage import Capacitor
from repro.net.cohort import CohortPower

SOURCES = [
    CathodicProtectionSource(),
    SolarSource(),
    VibrationSource(),
    ThermalGradientSource(),
]


class TestArrayDrawsMatchScalarDraws:
    """The numpy contract everything else builds on: ``dist(size=n)``
    consumes the generator exactly like ``n`` scalar ``dist()`` calls."""

    def test_standard_normal(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        batch = a.standard_normal(64)
        scalars = [b.standard_normal() for _ in range(64)]
        assert batch.tolist() == scalars

    def test_random(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        batch = a.random(64)
        scalars = [b.random() for _ in range(64)]
        assert batch.tolist() == scalars

    def test_normal_with_loc_scale(self):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        batch = a.normal(loc=1.0, scale=0.05, size=64)
        scalars = [b.normal(loc=1.0, scale=0.05) for _ in range(64)]
        assert batch.tolist() == scalars


class TestPowerAtMany:
    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: type(s).__name__)
    def test_matches_sequential_scalar_calls(self, source):
        n = 32
        times = [
            0.0,
            units.HOUR * 9.0,       # mid-morning (solar daylight)
            units.DAY * 5.9,        # weekday/weekend boundary region
            units.days(200.0) + units.HOUR * 12.0,
            units.years(30.0) + units.HOUR * 13.0,
        ]
        for t in times:
            a, b = np.random.default_rng(123), np.random.default_rng(123)
            batch = source.power_at_many(t, a, n)
            scalars = [source.power_at(t, b) for _ in range(n)]
            assert batch.tolist() == scalars
            # Both paths must leave the generators in the same state.
            assert a.random() == b.random()

    def test_solar_night_draws_nothing(self):
        source = SolarSource()
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        out = source.power_at_many(0.0, rng, 16)  # midnight
        assert out.tolist() == [0.0] * 16
        assert rng.bit_generator.state == state_before

    @pytest.mark.parametrize("source", SOURCES, ids=lambda s: type(s).__name__)
    def test_rejects_negative_time(self, source):
        with pytest.raises(ValueError):
            source.power_at_many(-1.0, np.random.default_rng(0), 4)


def make_scalar_members(n, source, profile, capacity_j, initial_j):
    return [
        HarvestingSystem(
            source=source,
            storage=Capacitor(capacity_j=capacity_j, stored_j=initial_j),
            profile=profile,
        )
        for _ in range(n)
    ]


class TestCohortPowerEquivalence:
    """CohortPower vs one HarvestingSystem per member, exact floats.

    The scalar reference consumes one shared generator in member order,
    exactly as per-entity devices sharing the "energy" stream do.
    """

    def _compare(self, cohort, members, active):
        stored = [members[i].storage.stored_j for i in active]
        assert cohort.stored_j[active].tolist() == stored
        flags = [members[i].browned_out for i in active]
        assert cohort.in_brownout[active].tolist() == flags
        counts = [members[i].brownouts for i in active]
        assert cohort.brownout_counts[active].tolist() == counts

    @pytest.mark.parametrize(
        "source",
        [SolarSource(), VibrationSource(), CathodicProtectionSource()],
        ids=lambda s: type(s).__name__,
    )
    def test_step_and_transmit_trajectory(self, source):
        n = 12
        profile = TaskProfile()
        capacity = 0.5
        initial = 0.25
        airtime = 1.4e-3
        members = make_scalar_members(n, source, profile, capacity, initial)
        cohort = CohortPower(
            source=source,
            count=n,
            capacity_j=capacity,
            initial_stored_j=initial,
            profile=profile,
        )
        active = np.arange(n)
        rng_scalar = np.random.default_rng(42)
        rng_batch = np.random.default_rng(42)
        t = 0.0
        for _ in range(40):
            dt = units.HOUR * 6.0
            t += dt
            for i in active:
                members[i].step(dt, rng_scalar)
            cohort.step_many(dt, rng_batch, active)
            oks = [members[i].try_transmit(airtime) for i in active]
            batch_ok = cohort.try_transmit_many(airtime, active)
            assert batch_ok.tolist() == oks
            self._compare(cohort, members, active)

    def test_brownout_and_recovery_cycle(self):
        # A tiny capacitor with a real sleep floor browns out nightly on
        # solar and recovers each day — both transitions must match.
        source = SolarSource(cloud_fraction=0.5)
        profile = TaskProfile(sleep_power_w=2e-5)
        capacity = 0.05
        n = 8
        members = make_scalar_members(n, source, profile, capacity, capacity)
        cohort = CohortPower(
            source=source,
            count=n,
            capacity_j=capacity,
            initial_stored_j=capacity,
            profile=profile,
        )
        active = np.arange(n)
        rng_scalar = np.random.default_rng(9)
        rng_batch = np.random.default_rng(9)
        for step in range(48):  # 12 days of 6-hour steps
            dt = units.HOUR * 6.0
            for i in active:
                members[i].step(dt, rng_scalar)
            cohort.step_many(dt, rng_batch, active)
            self._compare(cohort, members, active)
        assert cohort.brownouts > 0  # the cycle actually browned out

    def test_dead_members_frozen(self):
        source = CathodicProtectionSource()
        profile = TaskProfile()
        n = 6
        members = make_scalar_members(n, source, profile, 0.5, 0.3)
        cohort = CohortPower(
            source=source, count=n, capacity_j=0.5, initial_stored_j=0.3,
            profile=profile,
        )
        rng_scalar = np.random.default_rng(3)
        rng_batch = np.random.default_rng(3)
        all_active = np.arange(n)
        for i in all_active:
            members[i].step(units.HOUR, rng_scalar)
        cohort.step_many(units.HOUR, rng_batch, all_active)
        # Members 2 and 4 die; the survivors keep stepping.
        active = np.array([0, 1, 3, 5])
        frozen = {2: cohort.stored_j[2], 4: cohort.stored_j[4]}
        for _ in range(5):
            for i in active:
                members[i].step(units.HOUR, rng_scalar)
            cohort.step_many(units.HOUR, rng_batch, active)
            self._compare(cohort, members, active)
        assert cohort.stored_j[2] == frozen[2]
        assert cohort.stored_j[4] == frozen[4]

    def test_zero_dt_and_empty_active_are_noops(self):
        cohort = CohortPower(
            source=CathodicProtectionSource(), count=3, capacity_j=0.5,
            initial_stored_j=0.2,
        )
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        cohort.step_many(0.0, rng, np.arange(3))
        cohort.step_many(units.HOUR, rng, np.array([], dtype=int))
        assert rng.bit_generator.state == state
        assert cohort.stored_j.tolist() == [0.2] * 3

    def test_validation(self):
        source = CathodicProtectionSource()
        with pytest.raises(ValueError):
            CohortPower(source=source, count=0)
        with pytest.raises(ValueError):
            CohortPower(source=source, count=1, capacity_j=0.0)
        with pytest.raises(ValueError):
            CohortPower(source=source, count=1, initial_stored_j=1.0, capacity_j=0.5)
        with pytest.raises(ValueError):
            CohortPower(source=source, count=1, brownout_threshold=1.0)
        for dt in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                CohortPower(source=source, count=1).step_many(
                    dt, np.random.default_rng(0), np.arange(1)
                )


class TestDeviceCohortConstruction:
    def test_rejects_mismatched_power(self, sim):
        from repro.net.cohort import DeviceCohort
        from repro.net.geometry import Position
        from repro.radio import ieee802154

        power = CohortPower(source=CathodicProtectionSource(), count=3)
        with pytest.raises(ValueError):
            DeviceCohort(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=ieee802154.airtime_s(24),
                report_interval=units.HOUR,
                positions=[Position(0, 0), Position(1, 0)],
                power=power,
            )

    def test_rejects_negative_payload(self, sim):
        from repro.net.cohort import DeviceCohort
        from repro.net.geometry import Position
        from repro.radio import ieee802154

        with pytest.raises(ValueError, match="payload_bytes"):
            DeviceCohort(
                sim,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime_s=ieee802154.airtime_s(24),
                report_interval=units.HOUR,
                positions=[Position(0, 0)],
                payload_bytes=-1,
            )

    def test_lifetimes_drawn_like_failure_processes(self, sim):
        """Cohort death times consume "device-hw" exactly as per-device
        FailureProcess arming does — one scalar sample per member."""
        from repro.core import Simulation
        from repro.net.cohort import DeviceCohort
        from repro.net.geometry import Position
        from repro.radio import ieee802154
        from repro.reliability.components import energy_harvesting_device

        model = energy_harvesting_device()
        n = 5
        cohort = DeviceCohort(
            sim,
            technology="802.15.4",
            spec=ieee802154.default_spec(),
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.HOUR,
            positions=[Position(float(i), 0.0) for i in range(n)],
            lifetime_model=model,
        )
        cohort.deploy()
        reference = Simulation(seed=42)  # same seed as the sim fixture
        rng = reference.rng("device-hw")
        expected = [float(model.sample(rng, 1)[0]) for _ in range(n)]
        assert cohort.death_at.tolist() == expected


# ----------------------------------------------------------------------
# Engine equivalence on the forwarding drop paths
# ----------------------------------------------------------------------
# The city fixture never blocklists, degrades a backhaul, darkens the
# endpoint, or routes through paid hotspots.  One small LoRa layout runs
# once as per-entity EdgeDevices and once as one DeviceCohort, with every
# one of those paths firing, and the two runs must agree on every
# forwarding counter and every endpoint aggregate.

COHORT = "c"
REPORT = units.hours(6.0)
HORIZON = units.days(15.0)
#: Columns alternate west and east, so consecutive members mostly reach
#: different gateways: grouping by gateway reorders them, and only
#: member-order wallet debits refuse the same members the per-entity
#: engine refuses.
MEMBER_POSITIONS = [
    (x, y) for y in (100.0, 1000.0, 1900.0) for x in (100.0, 1900.0, 700.0, 1300.0)
]
#: Two credits a packet (30 B > one 24 B unit); about ten credits a
#: report reach the hotspots, so the odd-sized wallet runs dry partway
#: through one report (day 6.25).
PAYLOAD_BYTES = 30
WALLET_CREDITS = 253


class LoggingWallet:
    """A shared hotspot wallet that records when each debit succeeded."""

    def __init__(self, sim, credits):
        from repro.net import DataCreditWallet

        self.sim = sim
        self.inner = DataCreditWallet()
        self.inner.provision(credits)
        self.log = []

    def debit(self, credits):
        ok = self.inner.debit(credits)
        self.log.append((self.sim.now, ok))
        return ok


def drop_path_layout(engine, endpoint_cls=None):
    """Run the layout on ``engine`` to the horizon.

    ``endpoint_cls`` defaults to :class:`CloudEndpoint`.  Returns
    ``(sim, endpoint, gateways, wallet, fleet)``.
    """
    from repro.core import Simulation
    from repro.net import CampusBackhaul, CloudEndpoint, ThirdPartyGateway
    from repro.net.cohort import DeviceCohort
    from repro.net.device import EdgeDevice
    from repro.net.gateway import Gateway
    from repro.net.geometry import Position
    from repro.net.topology import GatewayIndex
    from repro.radio.lora import LoRaParameters, suburban_path_loss

    sim = Simulation(seed=5)
    lora = LoRaParameters()
    # A weak, embedded link, so some reports are lost on the radio.
    spec = lora.spec(tx_power_dbm=0.0)
    path_loss = suburban_path_loss(embedded=True)
    endpoint = (endpoint_cls or CloudEndpoint)(sim)
    endpoint.deploy()
    backhaul = CampusBackhaul(sim)
    backhaul.add_dependency(endpoint)
    backhaul.deploy()
    wallet = LoggingWallet(sim, WALLET_CREDITS)
    owned = [
        Gateway(sim, "lora", spec, path_loss, Position(x, 0.0), name=f"gw-{k}")
        for k, x in enumerate((0.0, 2000.0))
    ]
    hotspots = [
        ThirdPartyGateway(sim, spec, path_loss, Position(x, 2000.0), name=f"hs-{k}")
        for k, x in enumerate((0.0, 2000.0))
    ]
    gateways = owned + hotspots
    for gateway in gateways:
        gateway.add_dependency(backhaul)
        gateway.deploy()
    for hotspot in hotspots:
        hotspot.wallet = wallet
    index = GatewayIndex(
        sim, lambda: [g for g in gateways if g.alive], cell_size_m=500.0
    )
    owned[0].block(f"{COHORT}.0")
    # Fault windows sit between report ticks, so no two events tie.
    faults = [
        (2.1, backhaul.force_degrade),
        (2.6, backhaul.restore_degrade),
        (3.1, owned[0].force_degrade),  # a hearer lost ...
        (4.1, owned[0].restore_degrade),  # ... and gained back
        (5.1, endpoint.force_degrade),
        (5.6, endpoint.restore_degrade),
        (7.1, owned[1].fail),
    ]
    for day, action in faults:
        sim.call_at(units.days(day), action)
    positions = [Position(x, y) for x, y in MEMBER_POSITIONS]
    airtime_s = lora.airtime_s(PAYLOAD_BYTES)
    if engine == "cohort":
        cohort = DeviceCohort(
            sim, "lora", spec, airtime_s, REPORT, positions,
            payload_bytes=PAYLOAD_BYTES, name=COHORT,
        )
        cohort.gateway_index = index
        cohort.deploy()
        fleet = [cohort]
    else:
        fleet = []
        for i, position in enumerate(positions):
            device = EdgeDevice(
                sim, "lora", spec, airtime_s, REPORT,
                payload_bytes=PAYLOAD_BYTES, position=position,
                name=f"{COHORT}.{i}",
            )
            device.gateway_index = index
            device.deploy()
            fleet.append(device)
    sim.run_until(HORIZON)
    return sim, endpoint, gateways, wallet, fleet


def forwarding_accounts(endpoint, gateways, wallet, fleet):
    loss = {}
    for unit in fleet:
        for key, value in unit.loss_breakdown().items():
            loss[key] = loss.get(key, 0) + value
    return {
        "gateways": {
            g.name: {
                "received": g.packets_received,
                "forwarded": g.packets_forwarded,
                "blocklist": g.drops_blocklist,
                "backhaul": g.drops_backhaul,
                "endpoint": g.drops_endpoint,
                "unpaid": getattr(g, "drops_unpaid", 0),
            }
            for g in gateways
        },
        "delivered": endpoint.delivered_count,
        "gap_buckets": endpoint.delivery_gap_buckets,
        "per_device_last": dict(endpoint.per_device_last),
        "wallet": (wallet.inner.balance, wallet.inner.spent, wallet.inner.refusals),
        "loss": loss,
    }


class TestCohortForwardingEquivalence:
    def test_drop_paths_match_per_entity(self):
        reference = drop_path_layout("per-entity")
        cohort = drop_path_layout("cohort")
        expected = forwarding_accounts(*reference[1:])
        assert forwarding_accounts(*cohort[1:]) == expected
        # Every drop path fired, so the equality above covers each.
        totals = {
            reason: sum(g[reason] for g in expected["gateways"].values())
            for reason in ("blocklist", "backhaul", "endpoint", "unpaid")
        }
        assert all(totals.values()), totals
        assert expected["loss"]["radio_lost"] > 0
        # The shared wallet ran dry inside one report: that tick has
        # both paid and refused debits, and debits ran in member order.
        by_tick = {}
        for now, ok in cohort[3].log:
            by_tick.setdefault(now, set()).add(ok)
        assert {True, False} in by_tick.values()
        assert cohort[3].log == reference[3].log

    def test_storing_endpoint_matches_per_entity(self):
        from repro.net import CloudEndpoint

        class ArrivalLog(CloudEndpoint):
            """Logs every arrival it records, with its route."""

            def __init__(self, sim):
                super().__init__(sim)
                self.log = []

            def deliver_many(self, sources, now, via_gateway, via_backhaul):
                if not super().deliver_many(sources, now, via_gateway, via_backhaul):
                    return False
                self.log.extend((s, now, via_gateway, via_backhaul) for s in sources)
                return True

        _, ref_endpoint, *_ = drop_path_layout("per-entity", ArrivalLog)
        sim, endpoint, *_ = drop_path_layout("cohort", ArrivalLog)
        assert len(endpoint.log) == len(ref_endpoint.log) > 0
        assert len(endpoint.log) == endpoint.delivered_count
        assert endpoint.weekly_uptime(0.0, HORIZON) == ref_endpoint.weekly_uptime(
            0.0, HORIZON
        )
        assert endpoint.device_silence(HORIZON) == ref_endpoint.device_silence(
            HORIZON
        )
        # Every arrival, with its time and route, not just a count.
        assert sorted(endpoint.log) == sorted(ref_endpoint.log)


class TestCohortLinkTableSurvival:
    """A topology bump drops only the member tables it can change."""

    def test_gained_gateway_drops_only_members_within_reach(self, sim):
        from repro.net import CampusBackhaul, CloudEndpoint, OwnedGateway
        from repro.net.cohort import DeviceCohort
        from repro.net.device import MAX_LINKS_TRIED, link_table
        from repro.net.geometry import Position
        from repro.net.topology import GatewayIndex
        from repro.radio import ieee802154

        spec = ieee802154.default_spec()
        path_loss = ieee802154.urban_path_loss()
        endpoint = CloudEndpoint(sim)
        endpoint.deploy()
        backhaul = CampusBackhaul(sim)
        backhaul.add_dependency(endpoint)
        backhaul.deploy()
        roster = []

        def add(x, y):
            gateway = OwnedGateway(
                sim, spec=spec, path_loss=path_loss, position=Position(x, y)
            )
            gateway.add_dependency(backhaul)
            gateway.deploy()
            roster.append(gateway)
            return gateway

        for x in (0.0, 60.0, 120.0, 180.0, 240.0, 300.0):
            for y in (0.0, 60.0):
                add(x, y)
        index = GatewayIndex(
            sim, lambda: [g for g in roster if g.alive], cell_size_m=60.0
        )
        positions = [
            Position(x, 30.0) for x in (10.0, 70.0, 130.0, 190.0, 250.0, 290.0)
        ]
        cohort = DeviceCohort(
            sim, "802.15.4", spec, ieee802154.airtime_s(24), units.HOUR, positions
        )
        cohort.gateway_index = index
        cohort.deploy()
        sim.run_until(units.hours(1.5))
        before = list(cohort._links)
        assert all(len(table) == MAX_LINKS_TRIED for table in before)

        gained = add(5.0, 25.0)
        within = [
            i
            for i, (position, table) in enumerate(zip(positions, before))
            if position.distance_sq_to(gained.position)
            <= position.distance_sq_to(table[-1][0].position)
        ]
        assert 0 < len(within) < len(positions)
        cohort._sync_candidates(index)
        assert [i for i, table in enumerate(cohort._links) if table is None] == within
        kept = [i for i in range(len(positions)) if i not in within]
        assert all(cohort._links[i] is before[i] for i in kept)

        sim.run_until(units.hours(2.5))
        for position, table in zip(positions, cohort._links):
            assert table == link_table(
                position,
                index.nearest_hearing(position, MAX_LINKS_TRIED),
                spec.frequency_hz,
            )
        assert gained in [g for g, _, _ in cohort._links[0]]
