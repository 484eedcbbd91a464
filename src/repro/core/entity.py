"""Simulation entities: anything with an identity and a service life.

``Entity`` is the common base for devices, gateways, backhauls, and the
cloud endpoint.  It tracks deployment/failure/retirement times so that
lifetime analysis is uniform across the hierarchy, and it carries the
dependency links used by :mod:`repro.core.hierarchy`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional

from .engine import Simulation

_ids = itertools.count(1)


def fresh_id(prefix: str) -> str:
    """Return a process-unique id like ``dev-17``.

    For ad-hoc labelling only.  Entities name themselves from their
    simulation's own counter (:meth:`Simulation.next_entity_id`), so a
    run's names are a function of the run, not of whatever else the
    process created first — a process-global counter here once made
    golden traces depend on test execution order.
    """
    return f"{prefix}-{next(_ids)}"


class EntityState(enum.Enum):
    """Lifecycle states shared by all infrastructure tiers."""

    PLANNED = "planned"
    ACTIVE = "active"
    FAILED = "failed"
    RETIRED = "retired"  # removed deliberately (obsolescence, decommission)


class Entity:
    """A named participant in the deployment hierarchy.

    Subclasses call :meth:`deploy` when entering service and
    :meth:`fail`/:meth:`retire` when leaving it.  ``depends_on`` links
    point *up* the hierarchy (device → gateway → backhaul → cloud).

    Every lifecycle transition and dependency rewiring bumps
    ``sim.topology_version``, the invalidation signal for caches derived
    from the entity graph (e.g. per-device link tables).
    """

    TIER = "entity"  # subclasses override: device | gateway | backhaul | cloud

    def __init__(self, sim: Simulation, name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name or f"{self.TIER}-{sim.next_entity_id()}"
        self.state = EntityState.PLANNED
        self.deployed_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.depends_on: List["Entity"] = []
        self.dependents: List["Entity"] = []
        self.tags: Dict[str, str] = {}
        #: Count of active forced service degradations (fault injection).
        #: Nonzero means the entity is alive but refuses service; see
        #: :meth:`force_degrade`.  A counter, not a flag, so overlapping
        #: degrade windows compose (each restore undoes one degrade).
        self.forced_degradations: int = 0
        sim.register_entity(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def deploy(self) -> None:
        """Enter service at the current simulation time."""
        if self.state is not EntityState.PLANNED:
            raise RuntimeError(f"{self.name} deployed from state {self.state}")
        self.state = EntityState.ACTIVE
        self.deployed_at = self.sim.now
        self.sim.topology_version += 1
        self.sim.record("deploy", self.name, tier=self.TIER)
        self.on_deploy()

    def fail(self, reason: str = "") -> None:
        """Leave service due to a fault."""
        if self.state is not EntityState.ACTIVE:
            return
        self.state = EntityState.FAILED
        self.ended_at = self.sim.now
        self.sim.topology_version += 1
        self.sim.record("fail", self.name, tier=self.TIER, reason=reason)
        self.on_end(reason)

    def retire(self, reason: str = "") -> None:
        """Leave service deliberately (upgrade, obsolescence, decommission)."""
        if self.state is not EntityState.ACTIVE:
            return
        self.state = EntityState.RETIRED
        self.ended_at = self.sim.now
        self.sim.topology_version += 1
        self.sim.record("retire", self.name, tier=self.TIER, reason=reason)
        self.on_end(reason)

    def on_deploy(self) -> None:
        """Hook for subclasses; runs after state transition to ACTIVE."""

    def on_end(self, reason: str) -> None:
        """Hook for subclasses; runs after FAILED/RETIRED transition."""

    # ------------------------------------------------------------------
    # Forced degradation (fault injection)
    # ------------------------------------------------------------------
    def force_degrade(self, reason: str = "") -> None:
        """Suspend service without killing the entity (injected fault).

        The entity stays ACTIVE — its failure clocks, renewal processes,
        and churn timers keep running — but service checks
        (:meth:`Gateway.hears`, :meth:`Backhaul.carries_traffic`,
        :meth:`CloudEndpoint.accepting`, the device duty cycle) refuse
        while any degradation is in force.  Degradations stack; each
        :meth:`restore_degrade` lifts one.
        """
        self.forced_degradations += 1
        self.sim.topology_version += 1
        self.sim.record("degrade", self.name, tier=self.TIER, reason=reason)

    def restore_degrade(self, reason: str = "") -> None:
        """Lift one forced degradation (no-op if none are in force)."""
        if self.forced_degradations <= 0:
            return
        self.forced_degradations -= 1
        self.sim.topology_version += 1
        self.sim.record("restore", self.name, tier=self.TIER, reason=reason)

    @property
    def degraded(self) -> bool:
        """True while at least one forced degradation is in force."""
        return self.forced_degradations > 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the entity itself is in service."""
        return self.state is EntityState.ACTIVE

    def service_life(self) -> Optional[float]:
        """Seconds spent in service, or None if never deployed.

        For entities still active, measures up to the current clock.
        """
        if self.deployed_at is None:
            return None
        end = self.ended_at if self.ended_at is not None else self.sim.now
        return end - self.deployed_at

    # ------------------------------------------------------------------
    # Hierarchy wiring
    # ------------------------------------------------------------------
    def add_dependency(self, upstream: "Entity") -> None:
        """Declare that this entity relies on ``upstream`` for service."""
        if upstream is self:
            raise ValueError(f"{self.name} cannot depend on itself")
        if upstream not in self.depends_on:
            self.depends_on.append(upstream)
            upstream.dependents.append(self)
            self.sim.topology_version += 1

    def remove_dependency(self, upstream: "Entity") -> None:
        """Sever a dependency link (e.g. when re-homing to a new gateway)."""
        if upstream in self.depends_on:
            self.depends_on.remove(upstream)
            upstream.dependents.remove(self)
            self.sim.topology_version += 1

    def effective_alive(self) -> bool:
        """True if this entity is in service *and* can reach the top tier.

        Implements the paper's dependency rule: "the lifetime of the
        device is limited by the lifetime and availability of its
        gateway" — an entity with upstream dependencies is effectively
        alive only if at least one upstream path is effectively alive.
        """
        if not self.alive:
            return False
        if not self.depends_on:
            return True
        return any(up.effective_alive() for up in self.depends_on)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"
