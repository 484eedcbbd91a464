"""Cohort-batched duty cycling for city-scale fleets.

A 100k-device city cannot afford one entity, one periodic task, and one
Python callback per device per tick.  ``DeviceCohort`` services a whole
batch of *homogeneous* devices (same radio, schedule, harvester, and
deploy time) from a single ``report`` event, holding member state as
struct-of-arrays (positions, energy, death times) and counting outcomes
in label-aggregated instruments.

The batch path is a performance representation, not a new model: it
draws from the same named RNG streams ("energy", "radio", "device-hw")
in the same per-stream order as the per-entity path, and every
floating-point step of the energy update is the same IEEE-754 operation
the scalar :class:`~repro.energy.harvester.HarvestingSystem` performs.
Because the named streams are independent generators, batching all
"energy" draws before all "radio" draws is invisible — only the order
*within* each stream matters, and that order (member order, with dead
and energy-denied members skipped exactly where the scalar path skips
them) is preserved.  The golden equivalence fixture in
``tests/experiment/test_city_equivalence.py`` pins this bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import units
from ..core.engine import PeriodicTask, Simulation
from ..core.entity import Entity
from ..energy.budget import TaskProfile
from ..energy.sources import EnergySource
from ..radio.link import RadioSpec
from ..radio.packets import credit_units
from ..reliability.distributions import LifetimeDistribution
from .device import (
    MAX_LINKS_TRIED,
    Link,
    first_decoder,
    link_table,
    outlives,
    reach_sq,
)
from .gateway import Gateway
from .geometry import Position
from .topology import GatewayIndex

#: Marks a gateway not yet heard in the report in progress.
_NEW = object()


class CohortPower:
    """Struct-of-arrays harvesting state for one cohort.

    Vectorises :class:`~repro.energy.harvester.HarvestingSystem` over a
    capacitor-backed membership.  Exactness contract: for members
    stepped with the same ``dt`` sequence, ``stored_j[i]`` and the
    brownout flags match a scalar ``HarvestingSystem`` +
    :class:`~repro.energy.storage.Capacitor` per member to the last
    bit.  The scalar-vs-vector pinning test lives in
    ``tests/net/test_cohort.py``.

    Two scalar-path behaviours worth naming because they are easy to
    break when vectorising:

    * The deficit branch leaks *before* discharging, and an unaffordable
      deficit drains storage to exactly ``0.0`` (``s - s``, not a
      clamp).
    * Brownout recovery requires refilling to *twice* the brownout
      floor, and a node recovering on transmit pays the startup energy
      on top of the cycle cost.

    Recovery-time bookkeeping (``recovery_times``,
    ``last_brownout_at``) is deliberately not carried: the recovery
    *transition* does not read it, so dropping it cannot diverge the
    state trajectory; cohorts report brownout counts only.
    """

    def __init__(
        self,
        source: EnergySource,
        count: int,
        capacity_j: float = 0.5,
        leakage_per_day: float = 0.01,
        initial_stored_j: float = 0.0,
        profile: Optional[TaskProfile] = None,
        conversion_efficiency: float = 0.8,
        brownout_threshold: float = 0.05,
    ) -> None:
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if capacity_j <= 0.0:
            raise ValueError(f"capacity_j must be positive, got {capacity_j}")
        if not 0.0 <= leakage_per_day < 1.0:
            raise ValueError("leakage_per_day must be in [0, 1)")
        if not 0.0 <= initial_stored_j <= capacity_j:
            raise ValueError("initial_stored_j must be within [0, capacity_j]")
        if not 0.0 < conversion_efficiency <= 1.0:
            raise ValueError("conversion_efficiency must be in (0, 1]")
        if not 0.0 <= brownout_threshold < 1.0:
            raise ValueError("brownout_threshold must be in [0, 1)")
        self.source = source
        self.count = count
        self.capacity_j = capacity_j
        self.leakage_per_day = leakage_per_day
        self.profile = profile if profile is not None else TaskProfile()
        self.conversion_efficiency = conversion_efficiency
        self.brownout_threshold = brownout_threshold
        self.stored_j = np.full(count, float(initial_stored_j))
        self.in_brownout = np.zeros(count, dtype=bool)
        self.brownout_counts = np.zeros(count, dtype=np.int64)
        self._clock = 0.0

    def step_many(
        self, dt: float, rng: np.random.Generator, active: np.ndarray
    ) -> None:
        """Advance the energy state of ``active`` members by ``dt``.

        ``active`` is an index array; members outside it (dead nodes)
        are untouched, mirroring a dead device whose duty cycle never
        runs again.  One harvest sample per active member is drawn from
        ``rng`` in member order — the same stream consumption as the
        scalar path's one ``power_at`` call per device.
        """
        if not dt >= 0.0:  # also rejects NaN
            raise ValueError(f"dt must be non-negative, got {dt}")
        n = int(active.size)
        if dt == 0.0 or n == 0:
            return
        midpoint = self._clock + dt / 2.0
        self._clock += dt
        s = self.stored_j[active]
        b = self.in_brownout[active]
        harvested = self.source.power_at_many(midpoint, rng, n) * dt
        net = (
            harvested * self.conversion_efficiency
            - self.profile.sleep_power_w * dt
        )
        # Shared Python-scalar pow, identical to Capacitor.leak per member.
        leak = (1.0 - self.leakage_per_day) ** units.as_days(dt)
        positive = net >= 0.0
        # Surplus branch: charge (clipped to headroom) then leak.
        # Deficit branch: leak first, then try to discharge the deficit.
        absorbed = np.where(positive, np.minimum(net, self.capacity_j - s), 0.0)
        s = (s + absorbed) * leak
        deficit = np.where(positive, 0.0, -net)
        paid = deficit <= s
        # Unaffordable deficit drains to exactly 0.0 (scalar: s - s).
        s = np.where(paid, s - deficit, 0.0)
        newly = ~paid & ~b
        self.brownout_counts[active] += newly
        refill = 2.0 * self.brownout_threshold * self.capacity_j
        b = np.where(paid, b & (s < refill), True)
        self.stored_j[active] = s
        self.in_brownout[active] = b

    def try_transmit_many(self, airtime_s: float, active: np.ndarray) -> np.ndarray:
        """Attempt to pay one duty cycle for each active member.

        Returns the per-member success mask (aligned with ``active``).
        Draws nothing — affordability is pure arithmetic.
        """
        s = self.stored_j[active]
        b = self.in_brownout[active]
        cost = self.profile.cycle_energy(airtime_s)
        cost_each = np.where(b, cost + self.profile.startup_energy_j, cost)
        floor = self.brownout_threshold * self.capacity_j
        short = (s - cost_each) < floor
        s = np.where(short, s, s - cost_each)
        newly = short & ~b
        self.brownout_counts[active] += newly
        refill = 2.0 * self.brownout_threshold * self.capacity_j
        b = np.where(short, True, b & (s < refill))
        self.stored_j[active] = s
        self.in_brownout[active] = b
        return ~short

    @property
    def brownouts(self) -> int:
        """Total brownout entries across the membership."""
        return int(self.brownout_counts.sum())


class DeviceCohort(Entity):
    """A batch of homogeneous transmit-only devices behind one event.

    One ``report`` event per tick services every living member: a
    vectorised energy step, then, for the members that afforded the
    cycle, the per-member radio trials an
    :class:`~repro.net.device.EdgeDevice` makes (scalar draws on the
    "radio" stream against a cached link table of the member's
    nearest-``MAX_LINKS_TRIED`` hearing gateways from the shared
    :class:`~repro.net.topology.GatewayIndex`), and finally one bulk
    :meth:`~repro.net.gateway.Gateway.receive_many` per heard gateway.

    Member hardware lifetimes are drawn at deployment on the
    "device-hw" stream with one scalar ``sample(rng, 1)`` call per
    member in member order — the exact draw an armed
    :class:`~repro.reliability.failure.FailureProcess` makes — and
    deaths are applied as a mask (``death_at > now``, strict: a
    per-entity fail event at exactly tick time executes before the
    report event, so a member dying *at* the tick must not report).

    Outcome counters aggregate over the membership but keep the
    ``tier="device"`` label so fleet-level registry queries
    (``metrics.total(name, tier="device")``) see one fleet regardless
    of execution mode.
    """

    TIER = "device-cohort"

    def __init__(
        self,
        sim: Simulation,
        technology: str,
        spec: RadioSpec,
        airtime_s: float,
        report_interval: float,
        positions: List[Position],
        payload_bytes: int = 24,
        power: Optional[CohortPower] = None,
        lifetime_model: Optional[LifetimeDistribution] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        if report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if airtime_s <= 0.0:
            raise ValueError("airtime_s must be positive")
        if not positions:
            raise ValueError("positions must be non-empty")
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
        if power is not None and power.count != len(positions):
            raise ValueError(
                f"power sized for {power.count} members, got {len(positions)}"
            )
        self.technology = technology
        self.spec = spec
        self.airtime_s = airtime_s
        self.report_interval = report_interval
        self.payload_bytes = payload_bytes
        #: What each member report costs a paying gateway.
        self._credits = credit_units(payload_bytes)
        self.positions = list(positions)
        self.count = len(self.positions)
        self.power = power
        self.lifetime_model = lifetime_model
        self.member_names = [f"{self.name}.{i}" for i in range(self.count)]
        self._x = np.array([p.x for p in self.positions])
        self._y = np.array([p.y for p in self.positions])
        self.death_at = np.full(self.count, np.inf)

        #: Per-member link tables: one ``(gateway, distance_m,
        #: mean_loss_db)`` triple per nearest hearing gateway, filled on
        #: a member's first report and kept exact by
        #: :meth:`_sync_candidates`, with each table's
        #: :func:`~repro.net.device.reach_sq`.  Every filled table is
        #: validated at the index epoch ``_links_epoch`` (-1: none yet).
        self._links: List[Optional[Tuple[Link, ...]]] = [None] * self.count
        self._reach_sq = np.full(self.count, np.inf)
        self._links_version: int = -1
        self._links_epoch: int = -1
        self.gateway_index = None

        metrics = sim.metrics
        self._c_attempts = metrics.counter(
            "net_reports_attempted_total", tier="device", entity=self.name
        )
        self._c_delivered = metrics.counter(
            "net_reports_delivered_total", tier="device", entity=self.name
        )
        self._c_energy_denied = metrics.counter(
            "net_reports_dropped_total",
            tier="device",
            entity=self.name,
            reason="energy",
        )
        self._c_no_gateway = metrics.counter(
            "net_reports_dropped_total",
            tier="device",
            entity=self.name,
            reason="no-gateway",
        )
        self._c_radio_lost = metrics.counter(
            "net_reports_dropped_total",
            tier="device",
            entity=self.name,
            reason="radio",
        )
        self._task: Optional[PeriodicTask] = None
        self._last_energy_step: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_deploy(self) -> None:
        self._last_energy_step = self.sim.now
        if self.lifetime_model is not None:
            rng = self.sim.rng("device-hw")
            model = self.lifetime_model
            now = self.sim.now
            # One draw per member, in member order: the same calls on
            # the stream as arming one FailureProcess per device, which
            # also calls ``draw``.  model.sample(rng, n) would draw risk
            # by risk across all members instead, interleaving the
            # per-component draws differently and breaking equivalence.
            draw = model.draw
            for i in range(self.count):
                self.death_at[i] = now + draw(rng)
        self._task = self.sim.every(
            self.report_interval, self._report, label=f"report:{self.name}"
        )

    def on_end(self, reason: str) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    # Link tables
    # ------------------------------------------------------------------
    @property
    def gateway_index(self) -> Optional[GatewayIndex]:
        """The shared spatial index the members discover gateways in."""
        return self._gateway_index

    @gateway_index.setter
    def gateway_index(self, index: Optional[GatewayIndex]) -> None:
        self._gateway_index = index
        self._links = [None] * self.count
        self._links_version = -1
        self._links_epoch = -1

    def _sync_candidates(self, index: GatewayIndex) -> None:
        """Reconcile the per-member link tables with the topology.

        Runs once per ``topology_version`` bump; between bumps no
        gateway's ``hears()`` can flip, so a filled table stays exact
        and the duty cycle never re-checks it.  Across a bump, a table
        survives under the per-entity engine's rule,
        :func:`~repro.net.device.outlives`, evaluated over every member
        at once: it is dropped only if a gateway the index logged as
        changed lies within its reach (members have no dependencies).
        """
        version = self.sim.topology_version
        if version == self._links_version:
            return
        self._links_version = version
        epoch = self._links_epoch
        if epoch < 0:
            self._links_epoch = index.epoch()  # no table was filled yet
            return
        changes = index.changes_since(epoch)
        if not changes:
            return
        self._links_epoch = epoch + len(changes)
        links = self._links
        stale = ~outlives(self._x, self._y, self._reach_sq, changes)
        for i in np.flatnonzero(stale).tolist():
            links[i] = None

    def _fill_links(self, i: int, index: GatewayIndex) -> Tuple[Link, ...]:
        """Member ``i``'s link table from a fresh nearest-hearing query."""
        position = self.positions[i]
        table = link_table(
            position,
            index.nearest_hearing(position, count=MAX_LINKS_TRIED),
            self.spec.frequency_hz,
        )
        self._links[i] = table
        self._reach_sq[i] = reach_sq(position, table)
        return table

    # ------------------------------------------------------------------
    # The batched duty cycle
    # ------------------------------------------------------------------
    def _report(self) -> None:
        if not self.alive or self.forced_degradations:
            return
        now = self.sim.now
        active = np.nonzero(self.death_at > now)[0]
        n_active = int(active.size)
        if n_active == 0:
            return
        self._c_attempts.value += n_active
        dt = now - self._last_energy_step
        self._last_energy_step = now
        if self.power is not None:
            self.power.step_many(dt, self.sim.rng("energy"), active)
            ok = self.power.try_transmit_many(self.airtime_s, active)
            denied = n_active - int(ok.sum())
            if denied:
                self._c_energy_denied.value += denied
            approved = active[ok]
        else:
            approved = active
        n_approved = int(approved.size)
        if n_approved == 0:
            return
        index = self._gateway_index
        if index is None:
            self._c_no_gateway.value += n_approved
            return
        self._sync_candidates(index)
        rng = self.sim.rng("radio")
        spec = self.spec
        links = self._links
        names = self.member_names
        credits = self._credits
        # Heard members grouped by gateway, in member order; a
        # wallet-backed gateway is delivered to inline instead (its
        # debits are the one order-sensitive forwarding step).
        batches: Dict[Gateway, Optional[List[str]]] = {}
        no_gateway = 0
        radio_lost = 0
        delivered = 0
        for i in approved.tolist():
            table = links[i]
            if table is None:
                table = self._fill_links(i, index)
            gateway = first_decoder(table, spec, rng)
            if gateway is None:
                if table:
                    radio_lost += 1
                else:
                    no_gateway += 1
                continue
            batch = batches.get(gateway, _NEW)
            if batch is _NEW:
                batch = None if getattr(gateway, "wallet", None) is not None else []
                batches[gateway] = batch
            if batch is None:
                delivered += gateway.receive_many((names[i],), now, credits)
            else:
                batch.append(names[i])
        for gateway, batch in batches.items():
            if batch is not None:
                delivered += gateway.receive_many(batch, now, credits)
        if no_gateway:
            self._c_no_gateway.value += no_gateway
        if radio_lost:
            self._c_radio_lost.value += radio_lost
        if delivered:
            self._c_delivered.value += delivered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attempts(self) -> int:
        """Member duty cycles attempted (registry-backed aggregate)."""
        return self._c_attempts.value

    @property
    def delivered(self) -> int:
        """Member reports that reached a recording endpoint."""
        return self._c_delivered.value

    @property
    def energy_denied(self) -> int:
        """Member reports skipped for lack of harvested energy."""
        return self._c_energy_denied.value

    @property
    def no_gateway(self) -> int:
        """Member reports with no live compatible gateway in range."""
        return self._c_no_gateway.value

    @property
    def radio_lost(self) -> int:
        """Member reports lost on the radio link."""
        return self._c_radio_lost.value

    def devices_alive(self, at: Optional[float] = None) -> int:
        """Members whose hardware is still alive at time ``at`` (default now)."""
        when = self.sim.now if at is None else at
        return int((self.death_at > when).sum())

    def loss_breakdown(self) -> dict:
        """Aggregate counts by loss cause, matching the device layout."""
        return {
            "attempts": self.attempts,
            "delivered": self.delivered,
            "energy_denied": self.energy_denied,
            "no_gateway": self.no_gateway,
            "radio_lost": self.radio_lost,
        }
