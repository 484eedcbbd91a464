"""The harvesting power subsystem of an edge device.

``HarvestingSystem`` couples a source to a storage element and answers
the only question the network layer asks: *can the node afford this
transmission right now?*  It integrates harvest over coarse steps
(exact integration is pointless against the noise models) and exposes
intermittency statistics — how often the node browns out and how long it
takes to recover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .budget import TaskProfile
from .sources import EnergySource
from .storage import Battery, Capacitor

Storage = Union[Capacitor, Battery]


@dataclass
class HarvestingSystem:
    """Source + storage + task profile for one device.

    ``step(dt, rng)`` advances the energy state; ``try_transmit``
    attempts to pay for one duty cycle.  A node that cannot pay is
    *browned out* but not dead — it recovers when storage refills, which
    is exactly the intermittent-computing behaviour the paper's devices
    exhibit.
    """

    source: EnergySource
    storage: Storage
    profile: TaskProfile = field(default_factory=TaskProfile)
    #: Fraction of harvested power actually banked (converter efficiency).
    conversion_efficiency: float = 0.8
    #: Storage fraction below which the node cannot operate at all.
    brownout_threshold: float = 0.05

    brownouts: int = 0
    last_brownout_at: Optional[float] = None
    recovery_times: List[float] = field(default_factory=list)
    _in_brownout: bool = field(default=False, repr=False)
    _clock: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.conversion_efficiency <= 1.0:
            raise ValueError("conversion_efficiency must be in (0, 1]")
        if not 0.0 <= self.brownout_threshold < 1.0:
            raise ValueError("brownout_threshold must be in [0, 1)")

    def step(self, dt: float, rng: np.random.Generator) -> None:
        """Advance the energy state by ``dt`` seconds.

        Harvest is sampled at the interval midpoint; sleep power is
        drawn continuously; leakage applies to storage.
        """
        if not dt >= 0.0:  # also rejects NaN
            raise ValueError(f"dt must be non-negative, got {dt}")
        if dt == 0.0:
            return
        midpoint = self._clock + dt / 2.0
        self._clock += dt
        harvested = self.source.power_at(midpoint, rng) * dt
        # Harvest and the sleep floor flow concurrently within the step:
        # net them before touching storage, so a coarse step never
        # browns out a node whose instantaneous harvest covers sleep.
        net = harvested * self.conversion_efficiency - self.profile.sleep_power_w * dt
        storage = self.storage
        if net >= 0.0:
            storage.charge(net)
            storage.leak(dt)
        else:
            storage.leak(dt)
            if not storage.discharge(-net):
                # Deficit unaffordable: drain what's there, mark brownout.
                storage.discharge(storage.stored_j)
                self._enter_brownout()
                return
        if self._in_brownout:
            self._maybe_recover()

    def try_transmit(self, airtime_s: float) -> bool:
        """Attempt to pay for one sense-and-transmit cycle.

        Returns True and debits storage on success.  A node recovering
        from brownout additionally pays the startup energy.
        """
        profile = self.profile
        cost = profile.cycle_energy(airtime_s)
        if self._in_brownout:
            cost += profile.startup_energy_j
        storage = self.storage
        floor = self.brownout_threshold * storage.usable_capacity_j
        if storage.stored_j - cost < floor:
            self._enter_brownout()
            return False
        paid = storage.discharge(cost)
        if paid and self._in_brownout:
            self._maybe_recover()
        return paid

    def _enter_brownout(self) -> None:
        if not self._in_brownout:
            self._in_brownout = True
            self.brownouts += 1
            self.last_brownout_at = self._clock

    def _maybe_recover(self) -> None:
        # Called only while browned out.
        refill = 2.0 * self.brownout_threshold * self.storage.usable_capacity_j
        if self.storage.stored_j >= refill:
            self._in_brownout = False
            if self.last_brownout_at is not None:
                self.recovery_times.append(self._clock - self.last_brownout_at)

    @property
    def browned_out(self) -> bool:
        """True while the node lacks energy to operate."""
        return self._in_brownout

    @property
    def mean_recovery_time(self) -> float:
        """Average brownout-to-recovery duration observed (0 if none)."""
        if not self.recovery_times:
            return 0.0
        return float(np.mean(self.recovery_times))

    def simulate_duty_cycle(
        self,
        interval_s: float,
        airtime_s: float,
        horizon_s: float,
        rng: np.random.Generator,
    ) -> "DutyCycleResult":
        """Standalone fast-forward: attempt a transmission every
        ``interval_s`` over ``horizon_s``; report delivery statistics.

        This is the vectorless reference path used by tests and the
        energy benchmarks; the networked path lives in
        :mod:`repro.net.device`.
        """
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        if horizon_s <= 0.0:
            raise ValueError("horizon_s must be positive")
        attempts = 0
        successes = 0
        t = 0.0
        while t + interval_s <= horizon_s:
            self.step(interval_s, rng)
            t += interval_s
            attempts += 1
            if self.try_transmit(airtime_s):
                successes += 1
        return DutyCycleResult(
            attempts=attempts,
            successes=successes,
            brownouts=self.brownouts,
            final_fill=self.storage.fill_fraction,
        )


@dataclass(frozen=True)
class DutyCycleResult:
    """Outcome of a standalone duty-cycle fast-forward."""

    attempts: int
    successes: int
    brownouts: int
    final_fill: float

    @property
    def success_rate(self) -> float:
        """Fraction of scheduled cycles actually transmitted."""
        if self.attempts == 0:
            return 0.0
        return self.successes / self.attempts
