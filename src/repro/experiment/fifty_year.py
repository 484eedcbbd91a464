"""The 50-year experiment (§4), end to end.

Assembles the paper's design: energy-harvesting transmit-only devices on
two radios; an *owned-infrastructure* arm (802.15.4 gateways we deploy
and maintain, on a campus backhaul) and a *third-party* arm (Helium-like
LoRa hotspots we pay with a prepaid wallet); one public endpoint with
the weekly-uptime metric and the 10-year domain-lease treadmill.

The top-level constraint holds: deployed devices are never touched.
Gateways and backhaul may be maintained; every intervention lands in the
maintenance ledger and the public diary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from ..analysis.diary import ExperimentDiary
from ..core import units
from ..core.engine import Simulation
from ..core.policy import AttachmentPolicy
from ..energy.harvester import HarvestingSystem
from ..energy.sources import source_by_name
from ..energy.storage import Capacitor
from ..net.backhaul import CampusBackhaul
from ..net.cloud import CloudEndpoint, UptimeReport
from ..net.device import EdgeDevice
from ..net.gateway import OwnedGateway
from ..net.geometry import Position, grid_positions, uniform_positions
from ..net.helium import ChurnModel, DataCreditWallet, HeliumNetwork
from ..net.topology import GatewayIndex
from ..radio import ieee802154
from ..radio.link import coverage_radius_m
from ..radio.lora import LoRaParameters
from ..reliability.components import energy_harvesting_device, gateway_platform
from ..reliability.maintenance import MaintenanceLedger

#: The two arms, each a group of sources in the endpoint's record.
OWNED_ARM = "owned-802.15.4"
HELIUM_ARM = "helium-lora"


@dataclass(frozen=True)
class FiftyYearConfig:
    """Parameters of one 50-year run.

    ``report_interval`` defaults to 6 h rather than the paper's hourly
    cadence purely for simulation cost; the weekly uptime metric is
    insensitive to the difference (both are >> weekly), and benches that
    audit credits use the paper's hourly arithmetic independently.
    """

    seed: int = 2021
    horizon: float = units.years(50.0)
    extent_m: float = 4_000.0

    # Devices (never touched after deployment).
    n_154_devices: int = 6
    n_lora_devices: int = 6
    report_interval: float = units.hours(6.0)
    payload_bytes: int = 24
    harvester: str = "cathodic"
    storage_j: float = 3.0

    # Owned arm.
    n_owned_gateways: int = 3
    maintain_gateways: bool = True
    gateway_replace_delay: float = units.days(21.0)
    gateway_swap_hours: float = 3.0
    gateway_hardware_usd: float = 900.0

    # Third-party arm.
    initial_hotspots: int = 40
    hotspot_arrivals_per_year: float = 8.0
    hotspot_median_tenure_years: float = 3.0
    network_halflife_years: Optional[float] = None
    wallet_credits: int = 500_000 * 12   # paper's per-device wallet x fleet

    # Fleet growth: §4.1 "we imagine the steady addition of new
    # instances and types of devices" — LoRa devices added per year,
    # cycling through harvester types, riding the existing third-party
    # infrastructure (the ease-of-deployment benefit).
    device_additions_per_year: float = 0.0
    addition_harvesters: tuple = ("cathodic", "solar", "vibration")

    # Longitudinal trust (§4.1): when True, every device's immutable
    # factory key is commissioned in a backend TrustRegistry; gateways
    # sync their blocklists from it yearly, so data from aged-out or
    # compromised devices stops being forwarded even though the
    # hardware keeps transmitting.
    model_trust: bool = False
    signing_scheme: str = "ed25519"

    # Endpoint & management.
    renewal_miss_probability: float = 0.1
    #: When True, domain-renewal misses follow an experimenter-
    #: succession model (knowledge decays at each custodian handoff,
    #: §4.5) instead of the constant probability above.
    model_succession: bool = False
    attachment: AttachmentPolicy = AttachmentPolicy.ANY_COMPATIBLE

    def __post_init__(self) -> None:
        # Every entry point (CLI, ScenarioTask, HTTP) builds a config, so
        # bad input fails here with one message instead of mid-run.
        if self.n_154_devices > 0:
            ieee802154.frame_bytes(self.payload_bytes)
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if not 0.0 <= self.renewal_miss_probability <= 1.0:
            raise ValueError("renewal_miss_probability must be in [0, 1]")
        for name in (
            "n_154_devices",
            "n_lora_devices",
            "payload_bytes",
            "n_owned_gateways",
            "initial_hotspots",
            "hotspot_arrivals_per_year",
            "wallet_credits",
            "device_additions_per_year",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # NaN passes every ordered comparison above and infinity is no
        # physical quantity; either would fail mid-run or run forever.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass
class ArmResult:
    """Per-arm outcome of a run."""

    arm: str
    device_names: List[str]
    weekly_uptime: float
    longest_gap_weeks: int
    devices_alive_at_end: int
    delivered: int
    attempts: int

    @property
    def delivery_rate(self) -> float:
        """Delivered / attempted across the arm's devices."""
        if self.attempts == 0:
            return 0.0
        return self.delivered / self.attempts


@dataclass
class FiftyYearResult:
    """Everything §4.5 promises to publish."""

    config: FiftyYearConfig
    overall: UptimeReport
    arms: Dict[str, ArmResult]
    maintenance: MaintenanceLedger
    diary: ExperimentDiary
    wallet: DataCreditWallet
    gateway_replacements: int
    device_touches: int

    def summary_lines(self) -> List[str]:
        """Headline rows for benchmark output."""
        lines = [
            f"overall weekly uptime: {self.overall.uptime:.4f} "
            f"(longest gap {self.overall.longest_gap_weeks} wk)",
        ]
        for arm in self.arms.values():
            lines.append(
                f"{arm.arm}: uptime={arm.weekly_uptime:.4f} "
                f"delivery={arm.delivery_rate:.3f} "
                f"alive={arm.devices_alive_at_end}/{len(arm.device_names)}"
            )
        lines.append(
            f"maintenance: {self.maintenance.total_hours():.1f} person-hours, "
            f"${self.maintenance.total_cost():.0f}, "
            f"device touches: {self.device_touches}"
        )
        lines.append(
            f"wallet: spent {self.wallet.spent} credits, "
            f"{self.wallet.balance} remaining, refusals {self.wallet.refusals}"
        )
        return lines


class FiftyYearExperiment:
    """Builds and runs one instance of the §4 experiment."""

    def __init__(self, config: FiftyYearConfig = FiftyYearConfig()) -> None:
        self.config = config
        self.sim = Simulation(seed=config.seed)
        self.ledger = MaintenanceLedger()
        self.diary = ExperimentDiary()
        self.endpoint: Optional[CloudEndpoint] = None
        self.campus: Optional[CampusBackhaul] = None
        self.owned_gateways: List[OwnedGateway] = []
        self.helium: Optional[HeliumNetwork] = None
        self.devices_154: List[EdgeDevice] = []
        self.devices_lora: List[EdgeDevice] = []
        self.gateway_replacements = 0
        self.succession = None
        self.trust_registry = None
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Assemble and deploy the full system at t=0."""
        if self._built:
            raise RuntimeError("experiment already built")
        self._built = True
        config = self.config

        self.endpoint = CloudEndpoint(
            self.sim,
            renewal_miss_probability=config.renewal_miss_probability,
        )
        self.succession: Optional["SuccessionModel"] = None
        if config.model_succession:
            from .succession import SuccessionConfig, SuccessionModel

            self.succession = SuccessionModel(
                config=SuccessionConfig(
                    base_miss_probability=config.renewal_miss_probability
                )
            )
            self.succession.generate(config.horizon, self.sim.rng("succession"))
            self.endpoint.miss_probability_fn = self.succession.miss_probability_at
            for line in self.succession.roster():
                self.diary.note(0.0, "handoff", f"(planned) {line}")
        self.endpoint.deploy()

        self._build_owned_arm()
        self._build_third_party_arm()
        if config.device_additions_per_year > 0.0:
            self._schedule_device_addition()
        if config.model_trust:
            self._setup_trust()
        self.diary.note(0.0, "milestone", "experiment commenced")

    def _setup_trust(self) -> None:
        from ..net.trust import TrustRegistry

        self.trust_registry = TrustRegistry(rng=self.sim.rng("trust"))
        for device in (*self.devices_154, *self.devices_lora):
            self.trust_registry.commission(
                device.name, self.config.signing_scheme, at=self.sim.now
            )
        self.sim.every(units.YEAR, self._sync_blocklists, label="trust-sync")

    def _sync_blocklists(self) -> None:
        """Yearly backend policy push: gateways refuse untrusted devices."""
        registry = self.trust_registry
        # Late-added devices get commissioned on the next sync.
        for device in (*self.devices_154, *self.devices_lora):
            if device.name not in registry.records:
                registry.commission(
                    device.name, self.config.signing_scheme, at=self.sim.now
                )
        blocklist = set(registry.blocklist_at(self.sim.now))
        for gateway in (*self.owned_gateways, *self.helium.hotspots):
            gateway.blocklist = set(blocklist)

    def _build_owned_arm(self) -> None:
        config = self.config
        self.campus = CampusBackhaul(self.sim, name="campus-net")
        self.campus.add_dependency(self.endpoint)
        self.campus.deploy()

        rng = self.sim.rng("placement")
        if config.n_owned_gateways <= 0:
            cluster = []
        else:
            cluster = uniform_positions(
                config.n_owned_gateways, config.extent_m / 8.0, rng
            )
        for position in cluster:
            self._deploy_owned_gateway(position)
        if config.n_154_devices <= 0 or not cluster:
            return

        # One shared spatial index over the live owned gateways; cell
        # size tracks the device radio's coverage radius.
        owned_index = GatewayIndex(
            self.sim,
            lambda: [g for g in self.owned_gateways if g.alive],
            cell_size_m=max(
                coverage_radius_m(
                    ieee802154.default_spec(), ieee802154.urban_path_loss(), 0.5
                ),
                50.0,
            ),
        )
        spacing = 60.0
        for index, offset in enumerate(
            grid_positions(config.n_154_devices, spacing_m=spacing)
        ):
            anchor = cluster[index % len(cluster)]
            position = Position(anchor.x + offset.x - spacing, anchor.y + offset.y - spacing)
            device = self._make_device(
                OWNED_ARM,
                technology="802.15.4",
                spec=ieee802154.default_spec(),
                airtime=ieee802154.airtime_s(config.payload_bytes),
                position=position,
            )
            # Static link to the nearest gateway at commissioning time:
            # an instance-bound device lives and dies with this link; a
            # compliant device additionally discovers live gateways.
            nearest = min(
                self.owned_gateways,
                key=lambda g: device.position.distance_sq_to(g.position),
            )
            device.add_dependency(nearest)
            device.gateway_index = owned_index
            device.deploy()
            self.devices_154.append(device)

    def _deploy_owned_gateway(self, position: Position) -> OwnedGateway:
        gateway = OwnedGateway(
            self.sim,
            spec=ieee802154.default_spec(tx_power_dbm=4.0),
            path_loss=ieee802154.urban_path_loss(),
            position=position,
        )
        gateway.add_dependency(self.campus)
        original_on_end = gateway.on_end

        def on_end(reason: str, _gw=gateway, _orig=original_on_end) -> None:
            _orig(reason)
            self._gateway_down(_gw, reason)

        gateway.on_end = on_end  # type: ignore[method-assign]
        gateway.deploy()
        # Raspberry-Pi-class hardware wears out; arm its failure clock.
        from ..reliability.failure import FailureProcess

        FailureProcess(
            self.sim, gateway, gateway_platform(networked=True), stream="gateway-hw"
        ).arm()
        self.owned_gateways.append(gateway)
        return gateway

    def _gateway_down(self, gateway: OwnedGateway, reason: str) -> None:
        self.diary.note(
            self.sim.now, "incident", f"gateway {gateway.name} down ({reason})"
        )
        if not self.config.maintain_gateways:
            return
        position = gateway.position

        def replace() -> None:
            controller = self.sim.fault_controller
            if controller is not None and controller.maintenance_suppressed(
                self.sim.now
            ):
                # Injected maintenance no-show: nobody answers the pager.
                # The visit is deferred to the window's end, and the
                # missed appointment goes in the public diary.
                resume_at = controller.suppression_ends(self.sim.now)
                self.diary.note(
                    self.sim.now,
                    "incident",
                    f"maintenance no-show: replacement of {gateway.name} "
                    f"deferred",
                )
                self.sim.call_at(
                    resume_at, replace, label=f"replace-deferred:{gateway.name}"
                )
                return
            from ..net.commissioning import commission_replacement

            successor = self._deploy_owned_gateway(position)
            report = commission_replacement(
                gateway,
                successor,
                rng=self.sim.rng("commissioning"),
                rehome_allowed=self.config.attachment
                is AttachmentPolicy.ANY_COMPATIBLE,
            )
            self.gateway_replacements += 1
            self.ledger.log(
                self.sim.now,
                tier="gateway",
                target=gateway.name,
                action="replace",
                labor_hours=self.config.gateway_swap_hours + report.labor_hours,
                cost_usd=self.config.gateway_hardware_usd,
            )
            detail = (
                f"replaced gateway {gateway.name}: "
                f"{report.migrated_devices} migrated"
            )
            if report.stranded_devices:
                detail += f", {report.stranded_devices} stranded"
            self.diary.note(self.sim.now, "maintenance", detail)

        self.sim.call_in(self.config.gateway_replace_delay, replace)

    def _build_third_party_arm(self) -> None:
        config = self.config
        wallet = DataCreditWallet()
        if config.wallet_credits > 0:
            cost = wallet.provision(config.wallet_credits)
            self.diary.note(
                0.0, "cost", f"provisioned {config.wallet_credits} credits (${cost:.2f})"
            )
        self.helium = HeliumNetwork(
            self.sim,
            self.endpoint,
            extent_m=config.extent_m,
            initial_hotspots=config.initial_hotspots,
            arrivals_per_year=config.hotspot_arrivals_per_year,
            churn=ChurnModel(
                median_tenure_years=config.hotspot_median_tenure_years,
                halflife_years=config.network_halflife_years,
            ),
            wallet=wallet,
        )
        # Expose the non-entity fault targets: WalletDrain acts on
        # ``resources["wallet"]`` and the invariant auditor cross-checks
        # the Helium live-hotspot cache through ``resources["helium"]``.
        self.sim.resources["wallet"] = wallet
        self.sim.resources["helium"] = self.helium
        if config.n_lora_devices <= 0:
            return
        lora = LoRaParameters(spreading_factor=10)
        rng = self.sim.rng("placement")
        for position in uniform_positions(config.n_lora_devices, config.extent_m, rng):
            device = self._make_device(
                HELIUM_ARM,
                technology="lora",
                spec=lora.spec(),
                airtime=lora.airtime_s(config.payload_bytes),
                position=position,
            )
            # Bind to the nearest hotspot of the day (the instance an
            # instance-bound device would be commissioned against).
            if self.helium.hotspots:
                nearest = min(
                    self.helium.hotspots,
                    key=lambda h: device.position.distance_sq_to(h.position),
                )
                device.add_dependency(nearest)
            device.gateway_index = self.helium.live_index()
            device.deploy()
            self.devices_lora.append(device)

    def _schedule_device_addition(self) -> None:
        rng = self.sim.rng("fleet-growth")
        gap = float(rng.exponential(units.YEAR / self.config.device_additions_per_year))
        self.sim.call_in(gap, self._add_device, label="device-addition")

    def _add_device(self) -> None:
        """Deploy one new LoRa device of the next harvester type (§4.1).

        New devices ride the existing third-party infrastructure —
        nothing but the edge device itself is deployed, which is exactly
        the ease-of-deployment benefit the paper claims for stable,
        trusted infrastructure.
        """
        if self.helium is None:
            return
        config = self.config
        added = len(self.devices_lora)
        harvester = config.addition_harvesters[
            added % len(config.addition_harvesters)
        ]
        lora = LoRaParameters(spreading_factor=10)
        rng = self.sim.rng("placement")
        position = uniform_positions(1, config.extent_m, rng)[0]
        device = self._make_device(
            HELIUM_ARM,
            technology="lora",
            spec=lora.spec(),
            airtime=lora.airtime_s(config.payload_bytes),
            position=position,
            harvester=harvester,
        )
        device.gateway_index = self.helium.live_index()
        device.deploy()
        self.devices_lora.append(device)
        self.diary.note(
            self.sim.now,
            "milestone",
            f"added device {device.name} ({harvester} harvester)",
        )
        self._schedule_device_addition()

    def _make_device(
        self,
        arm: str,
        technology: str,
        spec,
        airtime: float,
        position: Position,
        harvester: Optional[str] = None,
    ) -> EdgeDevice:
        config = self.config
        harvester = harvester or config.harvester
        power = HarvestingSystem(
            source=source_by_name(harvester),
            storage=Capacitor(
                capacity_j=config.storage_j, stored_j=config.storage_j / 2.0
            ),
        )
        embedded = harvester == "cathodic"
        device = EdgeDevice(
            self.sim,
            technology=technology,
            spec=spec,
            airtime_s=airtime,
            report_interval=config.report_interval,
            payload_bytes=config.payload_bytes,
            position=position,
            power=power,
            lifetime_model=energy_harvesting_device(harvester, embedded=embedded),
            attachment=config.attachment,
        )
        self.endpoint.register(device.name, arm)
        return device

    # ------------------------------------------------------------------
    # Execution & results
    # ------------------------------------------------------------------
    def run(self) -> FiftyYearResult:
        """Run to the horizon and assemble the published results."""
        if not self._built:
            self.build()
        self.sim.run_until(self.config.horizon)
        return self._collect()

    def _collect(self) -> FiftyYearResult:
        horizon = self.config.horizon
        overall = self.endpoint.weekly_uptime(0.0, horizon)
        arms = {
            OWNED_ARM: self._arm_result(OWNED_ARM, self.devices_154),
            HELIUM_ARM: self._arm_result(HELIUM_ARM, self.devices_lora),
        }
        self.diary.from_sim_log(self.sim)
        device_touches = self.ledger.device_touches()
        return FiftyYearResult(
            config=self.config,
            overall=overall,
            arms=arms,
            maintenance=self.ledger,
            diary=self.diary,
            wallet=self.helium.wallet,
            gateway_replacements=self.gateway_replacements,
            device_touches=device_touches,
        )

    def _arm_result(self, arm: str, devices: List[EdgeDevice]) -> ArmResult:
        horizon = self.config.horizon
        return ArmResult(
            arm=arm,
            device_names=sorted(d.name for d in devices),
            weekly_uptime=self.endpoint.weekly_uptime(0.0, horizon, arm).uptime,
            longest_gap_weeks=self.endpoint.longest_silence_weeks(horizon, arm),
            devices_alive_at_end=sum(1 for d in devices if d.alive),
            delivered=sum(d.delivered for d in devices),
            attempts=sum(d.attempts for d in devices),
        )
