"""The city-scale fleet scenario: LA's inventory behind one simulation.

Wires a real :func:`~repro.city.assets.los_angeles` asset class through
a :class:`~repro.city.deployment.RolloutPlan` into an executable
deployment: a street-furniture device grid, an offset gateway grid sized
to the radio's closed-form coverage radius, a campus backhaul, and a
cloud endpoint.  The scenario runs in either of two *bit-equivalent*
execution modes:

* ``engine="per-entity"`` — one :class:`~repro.net.device.EdgeDevice`
  per sensor, the reference path every golden trace pins.
* ``engine="cohort"`` — one :class:`~repro.net.cohort.DeviceCohort` per
  rollout batch, servicing the whole batch from a single event.

Both modes draw from the same named RNG streams in the same per-stream
order, so every delivery, loss, brownout, and death lands identically;
``tests/experiment/test_city_equivalence.py`` holds the proof.  The
cohort mode exists purely to make 100k+ devices tractable (its
throughput is the ``city-cohort`` workload of ``perfbench/run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from ..core import units
from ..core.engine import Simulation
from ..energy.budget import TaskProfile
from ..energy.harvester import HarvestingSystem
from ..energy.sources import source_by_name
from ..energy.storage import Capacitor
from ..net.backhaul import CampusBackhaul
from ..net.cloud import CloudEndpoint
from ..net.cohort import CohortPower, DeviceCohort
from ..net.device import EdgeDevice
from ..net.gateway import OwnedGateway
from ..net.geometry import Position, grid_positions
from ..net.topology import GatewayIndex
from ..radio import ieee802154
from ..radio.link import coverage_radius_m
from ..reliability.components import energy_harvesting_device, gateway_platform
from ..reliability.failure import FailureProcess
from .assets import los_angeles
from .deployment import RolloutPlan

#: Execution modes the scenario can run under.
ENGINES = ("cohort", "per-entity")


@dataclass(frozen=True)
class CityScaleConfig:
    """One city-scale run: which fleet, how large, and which engine.

    ``device_count`` draws from the named asset class of the LA
    inventory (so 100k devices is a *third* of the streetlight stock,
    not an abstract number).  ``gateway_spacing_m`` defaults to keep the
    farthest grid corner inside the 802.15.4 urban coverage radius
    (~85 m), so the planning-level link closes everywhere.
    """

    seed: int = 0
    asset: str = "streetlight"
    device_count: int = 1000
    horizon: float = units.days(28.0)
    report_interval: float = units.DAY
    payload_bytes: int = 24
    harvester: str = "solar"
    capacity_j: float = 0.5
    initial_fill: float = 0.5
    device_spacing_m: float = 50.0
    gateway_spacing_m: float = 110.0
    batches: int = 24
    engine: str = "cohort"

    def __post_init__(self) -> None:
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if not 0.0 <= self.initial_fill <= 1.0:
            raise ValueError("initial_fill must be in [0, 1]")
        if self.device_spacing_m <= 0.0 or self.gateway_spacing_m <= 0.0:
            raise ValueError("spacings must be positive")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


class CityScenario:
    """A constructed city fleet, ready to :meth:`run`."""

    def __init__(self, config: CityScaleConfig) -> None:
        self.config = config
        self.sim = Simulation(seed=config.seed)
        inventory = los_angeles()
        self.asset = inventory.asset(config.asset)
        if config.device_count > self.asset.sensor_count:
            raise ValueError(
                f"{config.asset} hosts only {self.asset.sensor_count} sensors, "
                f"cannot deploy {config.device_count}"
            )
        # +0.5 before the plan's int() floor so fleet_size lands exactly
        # on device_count regardless of how the division rounds.
        self.plan = RolloutPlan(
            asset=self.asset,
            project_cycle_years=min(self.asset.service_life_years, 25.0),
            batches=config.batches,
            instrumented_fraction=(config.device_count + 0.5)
            / self.asset.sensor_count,
        )
        assert self.plan.fleet_size == config.device_count

        self.spec = ieee802154.default_spec()
        self.path_loss = ieee802154.urban_path_loss()
        self.airtime_s = ieee802154.airtime_s(config.payload_bytes)
        self.source = source_by_name(config.harvester)
        self.profile = TaskProfile()
        self.device_lifetimes = energy_harvesting_device(
            harvester_kind=config.harvester,
            embedded=config.harvester != "solar",
        )

        self.endpoint = CloudEndpoint(self.sim, renewal_miss_probability=0.0)
        self.backhaul = CampusBackhaul(self.sim)
        self.backhaul.add_dependency(self.endpoint)
        self.endpoint.deploy()
        self.backhaul.deploy()

        self.gateways: List[OwnedGateway] = []
        self._build_gateways()
        self.gateway_index = GatewayIndex(
            self.sim,
            lambda: [g for g in self.gateways if g.alive],
            cell_size_m=max(
                coverage_radius_m(self.spec, self.path_loss, 0.5), 50.0
            ),
        )

        self.device_positions = grid_positions(
            config.device_count, spacing_m=config.device_spacing_m
        )
        self.devices: List[EdgeDevice] = []
        self.cohorts: List[DeviceCohort] = []
        if config.engine == "cohort":
            self._build_cohorts()
        else:
            self._build_devices()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_gateways(self) -> None:
        """An offset gateway grid covering the device extent.

        Gateways sit at half-spacing offsets — cell centres of their own
        grid — so the worst-case device sits at a gateway-grid corner,
        ``spacing * sqrt(2) / 2`` away, inside the coverage radius at
        the default spacing.  Each gateway rides the shared campus
        backhaul and wears out on the Raspberry-Pi platform model.
        """
        config = self.config
        side = 1
        while side * side < config.device_count:
            side += 1
        extent = side * config.device_spacing_m
        gw_side = max(1, -(-int(extent) // int(config.gateway_spacing_m)))
        spacing = config.gateway_spacing_m
        for row in range(gw_side):
            for col in range(gw_side):
                gateway = OwnedGateway(
                    self.sim,
                    spec=ieee802154.default_spec(tx_power_dbm=4.0),
                    path_loss=self.path_loss,
                    position=Position((col + 0.5) * spacing, (row + 0.5) * spacing),
                )
                gateway.add_dependency(self.backhaul)
                gateway.deploy()
                FailureProcess(
                    self.sim,
                    gateway,
                    gateway_platform(networked=True),
                    stream="gateway-hw",
                ).arm()
                self.gateways.append(gateway)

    def _batch_slices(self) -> List[range]:
        """Contiguous member index ranges, one per rollout batch.

        The first ``count % batches`` batches take the extra member, so
        every device lands in exactly one batch and batch order follows
        member order — the property that keeps per-stream RNG draw
        order identical between the two engines.
        """
        count = self.config.device_count
        batches = self.plan.batches
        base, rem = divmod(count, batches)
        slices = []
        start = 0
        for b in range(batches):
            size = base + (1 if b < rem else 0)
            if size == 0:
                continue
            slices.append(range(start, start + size))
            start += size
        return slices

    def _build_cohorts(self) -> None:
        config = self.config
        initial = config.initial_fill * config.capacity_j
        for batch, members in enumerate(self._batch_slices()):
            positions = [self.device_positions[i] for i in members]
            power = CohortPower(
                source=self.source,
                count=len(positions),
                capacity_j=config.capacity_j,
                initial_stored_j=initial,
                profile=self.profile,
            )
            cohort = DeviceCohort(
                self.sim,
                technology="802.15.4",
                spec=self.spec,
                airtime_s=self.airtime_s,
                report_interval=config.report_interval,
                positions=positions,
                payload_bytes=config.payload_bytes,
                power=power,
                lifetime_model=self.device_lifetimes,
                name=f"{config.asset}-batch-{batch}",
            )
            cohort.gateway_index = self.gateway_index
            cohort.deploy()
            self.cohorts.append(cohort)

    def _build_devices(self) -> None:
        config = self.config
        initial = config.initial_fill * config.capacity_j
        for members in self._batch_slices():
            for i in members:
                power = HarvestingSystem(
                    source=self.source,
                    storage=Capacitor(
                        capacity_j=config.capacity_j, stored_j=initial
                    ),
                    profile=self.profile,
                )
                device = EdgeDevice(
                    self.sim,
                    technology="802.15.4",
                    spec=self.spec,
                    airtime_s=self.airtime_s,
                    report_interval=config.report_interval,
                    payload_bytes=config.payload_bytes,
                    position=self.device_positions[i],
                    power=power,
                    lifetime_model=self.device_lifetimes,
                )
                device.gateway_index = self.gateway_index
                device.deploy()
                self.devices.append(device)

    # ------------------------------------------------------------------
    # Execution and summary
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Run to the configured horizon and return :meth:`fleet_summary`."""
        self.sim.run_until(self.config.horizon)
        return self.fleet_summary()

    def devices_alive(self) -> int:
        """Members whose hardware is still alive, across either engine."""
        if self.cohorts:
            return sum(c.devices_alive() for c in self.cohorts)
        return sum(1 for d in self.devices if d.alive)

    def fleet_summary(self) -> Dict[str, object]:
        """Engine-independent outcome aggregates.

        Every field must land bit-identically whichever engine executed
        the run — this dict *is* the equivalence surface the golden
        city fixture compares.  Deliberately excluded: executed-event
        counts and run-log lengths, which legitimately differ between
        one-event-per-device and one-event-per-batch execution.
        """
        metrics = self.sim.metrics
        uptime = self.endpoint.weekly_uptime(0.0, self.sim.now + 1.0)
        return {
            "engine": self.config.engine,
            "device_count": self.config.device_count,
            "attempts": metrics.total(
                "net_reports_attempted_total", tier="device"
            ),
            "delivered": metrics.total(
                "net_reports_delivered_total", tier="device"
            ),
            "energy_denied": metrics.total(
                "net_reports_dropped_total", tier="device", reason="energy"
            ),
            "no_gateway": metrics.total(
                "net_reports_dropped_total", tier="device", reason="no-gateway"
            ),
            "radio_lost": metrics.total(
                "net_reports_dropped_total", tier="device", reason="radio"
            ),
            "gateway_received": metrics.total(
                "net_packets_received_total", tier="gateway"
            ),
            "gateway_forwarded": metrics.total(
                "net_packets_forwarded_total", tier="gateway"
            ),
            "endpoint_delivered": self.endpoint.delivered_count,
            "gap_buckets": list(self.endpoint.delivery_gap_buckets),
            "uptime": uptime.uptime,
            "up_weeks": uptime.up_weeks,
            "longest_gap_weeks": uptime.longest_gap_weeks,
            "total_deliveries": uptime.total_deliveries,
            "devices_alive_at_end": self.devices_alive(),
            "gateways_alive_at_end": sum(1 for g in self.gateways if g.alive),
        }


def build_city(config: Union[CityScaleConfig, None] = None) -> CityScenario:
    """Construct a :class:`CityScenario` (default config if none given)."""
    return CityScenario(config if config is not None else CityScaleConfig())
