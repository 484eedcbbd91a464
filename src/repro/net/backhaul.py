"""Backhaul models: fiber, cellular (with generation sunsets), campus.

§3.3's taxonomy.  A backhaul is an :class:`~repro.core.entity.Entity`
with an availability process (outages with MTBF/MTTR) plus, for
cellular, a hard *sunset*: the carrier retires the radio generation and
the backhaul dies permanently — the 2G story the paper tells, where "a
fixed resource (spectrum) that they do not own or control is taken
away."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import units
from ..core.engine import Simulation
from ..core.entity import Entity, EntityState


@dataclass(frozen=True)
class OutageModel:
    """Alternating up/down renewal process for service availability."""

    mtbf: float = units.days(180.0)   # mean time between outages
    mttr: float = units.hours(8.0)    # mean time to restore

    def __post_init__(self) -> None:
        if not self.mtbf > 0.0:
            raise ValueError("mtbf must be positive")
        if not self.mttr > 0.0:
            raise ValueError("mttr must be positive")

    @property
    def availability(self) -> float:
        """Long-run fraction of time in service."""
        return self.mtbf / (self.mtbf + self.mttr)


class Backhaul(Entity):
    """Base backhaul: an availability process between gateway and cloud.

    ``up`` tracks short outages (distinct from entity death); a packet
    arriving during an outage is lost.  Subclasses set economics and
    sunset behaviour.

    The outage process alternates exponential up times (mean ``mtbf``)
    and down times (mean ``mttr``), drawn from the run's shared,
    block-drawn ``"backhaul-outages"`` stream in event order, and
    schedules one ``outage:<name>`` or ``restore:<name>`` event at a
    time.  A backhaul that dies while down still closes its downtime at
    the pending restore event; no outage follows it.
    """

    TIER = "backhaul"

    #: Human-readable technology label, overridden by subclasses.
    TECHNOLOGY = "generic"

    def __init__(
        self,
        sim: Simulation,
        name: Optional[str] = None,
        outage_model: Optional[OutageModel] = None,
    ) -> None:
        super().__init__(sim, name)
        self.outage_model = outage_model or OutageModel()
        self.up = True
        # Outage accounting lives in the run's metrics registry; the
        # ``outages`` attribute name survives as a property below.
        # ``downtime_s`` stays a plain float (simulated-seconds sum) and
        # is exported through a lazy gauge sampled at snapshot time.
        self._c_outages = sim.metrics.counter(
            "net_backhaul_outages_total", tier=self.TIER, entity=self.name
        )
        self.downtime_s = 0.0
        sim.metrics.gauge_fn(
            "net_backhaul_downtime_seconds",
            lambda: self.downtime_s,
            agg="sum",
            tier=self.TIER,
            entity=self.name,
        )
        self._down_since: Optional[float] = None

    def on_deploy(self) -> None:
        # Outage/restore events are most of a faulted run's events, so
        # what each one needs is fetched once here, as ``EdgeDevice``
        # fetches its streams: the shared block-drawn "backhaul-outages"
        # stream (every backhaul draws from it in event order), the
        # queue's ``push`` (looked up on the instance, so a class-level
        # wrapper still sees every call) and both labels.
        self._draw = self.sim.streams.exponentials("backhaul-outages").draw
        self._push = self.sim.events.push
        self._outage_label = f"outage:{self.name}"
        self._restore_label = f"restore:{self.name}"
        self._schedule_next_outage()

    # Both handlers push ``now + delay`` straight onto the queue: an
    # exponential delay is never negative, so ``call_at``'s past-time
    # check could never fire.
    def _schedule_next_outage(self) -> None:
        delay = self._draw(self.outage_model.mtbf)
        self._push(self.sim.now + delay, self._outage_begins, 0, self._outage_label)

    def _outage_begins(self) -> None:
        if not self.alive:
            return
        sim = self.sim
        self.up = False
        self._c_outages.value += 1
        self._down_since = sim.now
        sim.record("backhaul-outage", self.name)
        duration = self._draw(self.outage_model.mttr)
        self._push(sim.now + duration, self._outage_ends, 0, self._restore_label)

    def _outage_ends(self) -> None:
        if self._down_since is not None:
            self.downtime_s += self.sim.now - self._down_since
            self._down_since = None
        if not self.alive:
            return
        self.up = True
        self.sim.record("backhaul-restore", self.name)
        self._schedule_next_outage()

    @property
    def outages(self) -> int:
        """Natural outages begun so far (registry-backed)."""
        return self._c_outages.value

    def carries_traffic(self) -> bool:
        """True if a packet offered right now would get through.

        Injected degrade windows (:meth:`Entity.force_degrade`) overlay
        the natural outage process rather than toggling ``up``, so they
        compose with — and never corrupt — the renewal bookkeeping.
        Asked once per forwarded packet, so ``alive`` is spelled out as
        the state test.
        """
        return (
            self.state is EntityState.ACTIVE
            and self.up
            and self.forced_degradations == 0
        )

    def annual_cost_usd(self) -> float:
        """Recurring cost per year; subclasses override."""
        return 0.0


class FiberBackhaul(Backhaul):
    """Municipal/owned fiber: high capex paid once, tiny opex, very
    reliable, effectively no sunset — "wires generally will not go
    anywhere" (§3.3.2).
    """

    TECHNOLOGY = "fiber"

    def __init__(
        self,
        sim: Simulation,
        name: Optional[str] = None,
        capex_usd: float = 50_000.0,
        opex_usd_per_year: float = 1_200.0,
    ) -> None:
        super().__init__(
            sim,
            name,
            outage_model=OutageModel(mtbf=units.years(2.0), mttr=units.hours(12.0)),
        )
        self.capex_usd = capex_usd
        self.opex_usd_per_year = opex_usd_per_year

    def annual_cost_usd(self) -> float:
        return self.opex_usd_per_year


class CellularBackhaul(Backhaul):
    """Carrier cellular service: zero capex, per-gateway subscription,
    and a *sunset date* after which the generation is retired for good.

    No operator guarantees 50-year service periods; historical
    generation lifetimes run 15–25 years from launch to shutdown.
    """

    TECHNOLOGY = "cellular"

    def __init__(
        self,
        sim: Simulation,
        name: Optional[str] = None,
        generation: str = "4G",
        subscription_usd_per_year: float = 240.0,
        sunset_at: Optional[float] = None,
    ) -> None:
        super().__init__(
            sim,
            name,
            outage_model=OutageModel(mtbf=units.days(90.0), mttr=units.hours(4.0)),
        )
        self.generation = generation
        self.subscription_usd_per_year = subscription_usd_per_year
        self.sunset_at = sunset_at

    def on_deploy(self) -> None:
        super().on_deploy()
        if self.sunset_at is not None:
            when = max(self.sunset_at, self.sim.now)
            self.sim.call_at(when, self._sunset, label=f"sunset:{self.name}")

    def _sunset(self) -> None:
        if self.alive:
            self.sim.record(
                "sunset", self.name, generation=self.generation
            )
            self.retire(reason=f"{self.generation}-sunset")

    def annual_cost_usd(self) -> float:
        return self.subscription_usd_per_year


class CampusBackhaul(Backhaul):
    """University/municipal institutional network: free at the point of
    use, reliable, maintained by someone else's NOC — §4.3's
    "municipal-provided" stand-in for the owned-gateway arm."""

    TECHNOLOGY = "campus"

    def __init__(self, sim: Simulation, name: Optional[str] = None) -> None:
        super().__init__(
            sim,
            name,
            outage_model=OutageModel(mtbf=units.days(270.0), mttr=units.hours(6.0)),
        )

    def annual_cost_usd(self) -> float:
        return 0.0


class OpaqueBackhaul(Backhaul):
    """The third-party case: "the backhaul is largely opaque so long as
    third-party gateways remain operational" (§4.3).  Availability
    reflects a residential-ISP mix rather than an SLA."""

    TECHNOLOGY = "opaque-isp"

    def __init__(
        self, sim: Simulation, name: Optional[str] = None, asn: Optional[int] = None
    ) -> None:
        super().__init__(
            sim,
            name,
            outage_model=OutageModel(mtbf=units.days(45.0), mttr=units.hours(10.0)),
        )
        self.asn = asn
        if asn is not None:
            self.tags["asn"] = str(asn)
