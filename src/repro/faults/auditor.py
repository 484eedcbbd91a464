"""Always-on runtime invariant auditing.

The :class:`InvariantAuditor` hangs off the engine's ``audit_hook`` and
re-checks the simulation's structural invariants as the run executes —
not just at the end, when a corrupted counter has long since washed into
an aggregate.  The checks are read-only by construction: the auditor
schedules no events, draws no randomness, and records nothing in the run
log, so enabling it **cannot** change a trace — the golden-fixture suite
runs every scenario with the auditor strict and asserts the pre-auditor
hashes still hold.

Checks (each names the entity and sim-time when it trips):

* **queue-accounting** — the event heap's live/dead bookkeeping matches
  a direct scan of the heap, and the peak high-water mark is an upper
  bound on the current live count.
* **energy-bounds** — every device's storage element holds a
  non-negative charge no greater than its rated capacity.
* **link-conservation** — delivered ≤ sent on every hop: per device,
  ``delivered`` plus categorized losses never exceeds ``attempts``; per
  gateway, ``received`` equals ``forwarded`` plus the categorized drops.
* **delivery-reality** — the reachability ledger agrees with delivery
  reality: total packets gateways claim to have forwarded equals the
  total deliveries endpoints actually recorded.
* **cache-coherence** — topology-version-keyed caches (device link
  tables, gateway-index hearing snapshots, the Helium live-hotspot
  view) match a fresh recomputation whenever they claim to be current:
  a link table's gateways by identity, its distances and mean losses
  exactly.
* **monotonicity** — the clock and ``topology_version`` never move
  backwards.

In strict mode the first violation raises
:class:`InvariantViolationError`; in collect mode violations accumulate
on :attr:`InvariantAuditor.violations` for post-run reporting (the
Monte-Carlo runner surfaces the count per run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.engine import Simulation

#: Float slack for energy accounting (charge/leak round-trips).
_ENERGY_EPS_J = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One failed runtime check, pinned to an entity and a sim-time."""

    check: str
    time: float
    entity: Optional[str]
    detail: str

    def __str__(self) -> str:
        where = self.entity if self.entity is not None else "<simulation>"
        return f"[{self.check}] t={self.time:.6g} {where}: {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised in strict mode when a runtime invariant check fails."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


def _link_repr(table) -> list:
    """A link table for a violation message (``repr`` floats round-trip)."""
    return [(g.name, distance_m, loss) for g, distance_m, loss in table]


class InvariantAuditor:
    """Periodic runtime invariant checker for one simulation.

    Parameters
    ----------
    sim:
        The simulation to audit.
    every:
        Run the full check battery once per this many executed events.
        The battery is O(entities + pending events), so the default
        keeps the overhead a few percent on fifty-year runs while still
        catching corruption within one audit window of its cause.
    strict:
        Raise on the first violation (tests, golden captures) instead of
        collecting (Monte-Carlo studies, where one bad run should be
        reported, not abort the whole study).
    """

    def __init__(
        self, sim: "Simulation", every: int = 2500, strict: bool = True
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.sim = sim
        self.every = every
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self.audits_run = 0
        self._countdown = every
        self._last_now = sim.now
        self._last_topology_version = sim.topology_version

    def install(self) -> "InvariantAuditor":
        """Attach to the engine's post-event hook and return self."""
        if self.sim.audit_hook is not None:
            raise RuntimeError("simulation already has an audit hook")
        self.sim.audit_hook = self._on_event
        return self

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _on_event(self) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.every
            self.check_now()

    def _flag(self, check: str, entity: Optional[str], detail: str) -> None:
        violation = InvariantViolation(
            check=check, time=self.sim.now, entity=entity, detail=detail
        )
        if self.strict:
            raise InvariantViolationError(violation)
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # The battery
    # ------------------------------------------------------------------
    def check_now(self) -> List[InvariantViolation]:
        """Run every check immediately; returns violations found *this*
        sweep (collect mode) or raises on the first (strict mode)."""
        before = len(self.violations)
        self.audits_run += 1
        self._check_monotonicity()
        self._check_queue_accounting()
        self._check_entities()
        self._check_delivery_reality()
        self._check_caches()
        return self.violations[before:]

    def _check_monotonicity(self) -> None:
        sim = self.sim
        if sim.now < self._last_now:
            self._flag(
                "monotonicity",
                None,
                f"clock moved backwards: {self._last_now} -> {sim.now}",
            )
        self._last_now = sim.now
        if sim.topology_version < self._last_topology_version:
            self._flag(
                "monotonicity",
                None,
                f"topology_version moved backwards: "
                f"{self._last_topology_version} -> {sim.topology_version}",
            )
        self._last_topology_version = sim.topology_version

    def _check_queue_accounting(self) -> None:
        queue = self.sim.events
        live = 0
        dead = 0
        for entry in queue._heap:
            if entry[3].cancelled:
                dead += 1
            else:
                live += 1
        if live != len(queue):
            self._flag(
                "queue-accounting",
                None,
                f"live counter says {len(queue)}, heap scan finds {live}",
            )
        if dead != queue.dead_entries:
            self._flag(
                "queue-accounting",
                None,
                f"dead counter says {queue.dead_entries}, heap scan finds {dead}",
            )
        if queue.peak_live < live:
            self._flag(
                "queue-accounting",
                None,
                f"peak_live {queue.peak_live} below current live count {live}",
            )

    def _check_entities(self) -> None:
        forwarded_total = 0
        delivered_total = 0
        for entity in self.sim.entities:
            tier = getattr(entity, "TIER", None)
            if tier == "device":
                self._check_device(entity)
            elif tier == "device-cohort":
                self._check_cohort(entity)
            elif tier == "gateway":
                forwarded_total += self._check_gateway(entity)
            elif tier == "cloud":
                delivered_total += entity.delivered_count
        self._forwarded_total = forwarded_total
        self._delivered_total = delivered_total

    def _check_device(self, device) -> None:
        attempts = device.attempts
        accounted = (
            device.delivered
            + device.energy_denied
            + device.no_gateway
            + device.radio_lost
        )
        if device.delivered > attempts or accounted > attempts:
            self._flag(
                "link-conservation",
                device.name,
                f"loss accounting exceeds attempts: {device.loss_breakdown()}",
            )
        power = getattr(device, "power", None)
        if power is not None:
            stored = power.storage.stored_j
            capacity = power.storage.capacity_j
            if stored < -_ENERGY_EPS_J or stored > capacity + _ENERGY_EPS_J:
                self._flag(
                    "energy-bounds",
                    device.name,
                    f"stored_j={stored!r} outside [0, capacity_j={capacity!r}]",
                )

    def _check_cohort(self, cohort) -> None:
        attempts = cohort.attempts
        accounted = (
            cohort.delivered
            + cohort.energy_denied
            + cohort.no_gateway
            + cohort.radio_lost
        )
        if cohort.delivered > attempts or accounted > attempts:
            self._flag(
                "link-conservation",
                cohort.name,
                f"loss accounting exceeds attempts: {cohort.loss_breakdown()}",
            )
        power = getattr(cohort, "power", None)
        if power is not None:
            stored = power.stored_j
            capacity = power.capacity_j
            if bool(
                (stored < -_ENERGY_EPS_J).any()
                or (stored > capacity + _ENERGY_EPS_J).any()
            ):
                worst_low = float(stored.min())
                worst_high = float(stored.max())
                self._flag(
                    "energy-bounds",
                    cohort.name,
                    f"stored_j range [{worst_low!r}, {worst_high!r}] outside "
                    f"[0, capacity_j={capacity!r}]",
                )

    def _check_gateway(self, gateway) -> int:
        received = gateway.packets_received
        accounted = (
            gateway.packets_forwarded
            + gateway.drops_blocklist
            + gateway.drops_backhaul
            + gateway.drops_endpoint
        )
        if received != accounted:
            self._flag(
                "link-conservation",
                gateway.name,
                f"received={received} != forwarded+drops={accounted}",
            )
        if gateway.packets_forwarded > received:
            self._flag(
                "link-conservation",
                gateway.name,
                f"forwarded {gateway.packets_forwarded} > received {received}",
            )
        return gateway.packets_forwarded

    def _check_delivery_reality(self) -> None:
        # Set by _check_entities immediately before this runs.
        if self._forwarded_total != self._delivered_total:
            self._flag(
                "delivery-reality",
                None,
                f"gateways claim {self._forwarded_total} forwards, endpoints "
                f"recorded {self._delivered_total} deliveries",
            )

    def _check_caches(self) -> None:
        version = self.sim.topology_version
        # Indexes first: the link-table recomputations below take a
        # snapshot of any index whose snapshot is stale.
        indexes = {}
        for entity in self.sim.entities:
            index = getattr(entity, "gateway_index", None)
            if index is not None:
                indexes[id(index)] = index
        for index in indexes.values():
            if index._hearing_version != version:
                continue  # a stale snapshot is retaken before any use
            fresh_hearing = [g for g in index.provider() if g.hears()]
            if [id(g) for g in index._hearing] != [id(g) for g in fresh_hearing]:
                self._flag(
                    "cache-coherence",
                    None,
                    f"gateway index hearing snapshot holds "
                    f"{len(index._hearing)}, recomputation finds "
                    f"{len(fresh_hearing)}",
                )
        for entity in self.sim.entities:
            if getattr(entity, "TIER", None) != "device":
                continue
            if entity._links_version != version:
                continue  # stale tables are allowed; only fresh ones must agree
            cached = entity._links
            fresh = entity.fresh_links()
            if [(id(g), d, loss) for g, d, loss in cached] != [
                (id(g), d, loss) for g, d, loss in fresh
            ]:
                self._flag(
                    "cache-coherence",
                    entity.name,
                    f"link table {_link_repr(cached)} != "
                    f"recomputation {_link_repr(fresh)}",
                )
        helium = self.sim.resources.get("helium")
        if helium is not None and helium._live_cache_version == version:
            fresh_live = [h for h in helium.hotspots if h.alive]
            if [id(h) for h in helium._live_cache] != [id(h) for h in fresh_live]:
                self._flag(
                    "cache-coherence",
                    "helium",
                    f"live-hotspot cache holds {len(helium._live_cache)}, "
                    f"recomputation finds {len(fresh_live)}",
                )
