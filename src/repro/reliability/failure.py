"""Failure processes: wiring lifetime distributions into the DES engine.

``FailureProcess`` arms a one-shot failure event for an entity when it
deploys.  ``RenewalProcess`` models repair-and-replace maintenance: each
failure triggers a replacement after a logistics delay, accumulating the
person-hours ledger used by the E1 labor benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..core import units
from ..core.engine import Simulation
from ..core.entity import Entity
from ..core.events import Event
from .distributions import LifetimeDistribution


class FailureProcess:
    """Schedules a single stochastic failure for one entity.

    The failure time is drawn when :meth:`arm` is called (normally at
    deployment).  :meth:`disarm` cancels a pending failure, e.g. when the
    entity is retired first.
    """

    def __init__(
        self,
        sim: Simulation,
        entity: Entity,
        model: LifetimeDistribution,
        stream: str = "failures",
        reason: str = "wearout",
    ) -> None:
        self.sim = sim
        self.entity = entity
        self.model = model
        self.stream = stream
        self.reason = reason
        self.scheduled_at: Optional[float] = None
        self._event: Optional[Event] = None

    def arm(self) -> float:
        """Draw a lifetime and schedule the failure.  Returns the time."""
        if self._event is not None:
            raise RuntimeError(f"failure already armed for {self.entity.name}")
        rng = self.sim.rng(self.stream)
        lifetime = self.model.draw(rng)
        when = self.sim.now + lifetime
        self.scheduled_at = when
        self._event = self.sim.call_at(
            when, self._fire, label=f"fail:{self.entity.name}"
        )
        return when

    def disarm(self) -> None:
        """Cancel the pending failure (entity retired or replaced)."""
        if self._event is not None:
            self.sim.events.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.entity.fail(reason=self.reason)


@dataclass
class Replacement:
    """One completed replacement in a renewal process."""

    failed_at: float
    replaced_at: float
    entity_name: str
    labor_hours: float


class RenewalProcess:
    """Failure → (delay) → replacement, repeated over the horizon.

    ``entity_factory`` builds and deploys the successor entity; the
    renewal re-arms itself on the new entity.  ``labor_hours_per_swap``
    feeds the person-hours ledger (the paper's 20-minute-per-device
    figure is ``labor_hours_per_swap=1/3``).
    """

    def __init__(
        self,
        sim: Simulation,
        entity: Entity,
        model: LifetimeDistribution,
        entity_factory: Callable[[], Entity],
        logistics_delay: float = units.days(14.0),
        labor_hours_per_swap: float = 1.0 / 3.0,
        stream: str = "renewals",
    ) -> None:
        if logistics_delay < 0.0:
            raise ValueError("logistics_delay must be non-negative")
        self.sim = sim
        self.model = model
        self.entity_factory = entity_factory
        self.logistics_delay = logistics_delay
        self.labor_hours_per_swap = labor_hours_per_swap
        self.stream = stream
        self.history: List[Replacement] = []
        self.current = entity
        self._process: Optional[FailureProcess] = None
        self.stopped = False

    def start(self) -> None:
        """Arm the failure process on the current entity."""
        self._process = FailureProcess(
            self.sim, self.current, self.model, stream=self.stream
        )
        original_on_end = self.current.on_end
        renewal = self

        def on_end(reason: str, _original=original_on_end) -> None:
            _original(reason)
            renewal._on_failure()

        # Bind per-instance so we observe this entity's end-of-life.
        self.current.on_end = on_end  # type: ignore[method-assign]
        self._process.arm()

    def stop(self) -> None:
        """Cease replacing; the current entity runs to natural failure."""
        self.stopped = True
        if self._process is not None:
            self._process.disarm()
            self._process = None

    def _on_failure(self) -> None:
        if self.stopped:
            return
        failed_at = self.sim.now
        failed_name = self.current.name
        self.sim.call_in(
            self.logistics_delay,
            lambda: self._replace(failed_at, failed_name),
            label=f"replace:{failed_name}",
        )

    def _replace(self, failed_at: float, failed_name: str) -> None:
        if self.stopped:
            return
        controller = self.sim.fault_controller
        if controller is not None and controller.maintenance_suppressed(
            self.sim.now
        ):
            # Injected maintenance no-show window: the visit slips to
            # the window's end rather than silently executing.
            self.sim.call_at(
                controller.suppression_ends(self.sim.now),
                lambda: self._replace(failed_at, failed_name),
                label=f"replace:{failed_name}",
            )
            return
        successor = self.entity_factory()
        if successor.deployed_at is None:
            successor.deploy()
        self.history.append(
            Replacement(
                failed_at=failed_at,
                replaced_at=self.sim.now,
                entity_name=failed_name,
                labor_hours=self.labor_hours_per_swap,
            )
        )
        self.current = successor
        self.start()

    @property
    def total_labor_hours(self) -> float:
        """Person-hours spent on replacements so far."""
        return sum(r.labor_hours for r in self.history)

    @property
    def replacement_count(self) -> int:
        """Number of completed replacements."""
        return len(self.history)


def sample_fleet_lifetimes(
    model: LifetimeDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` lifetimes — the bridge between reliability models and
    the vectorised cohort machinery in :mod:`repro.core.lifetime`."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return model.sample(rng, n)
