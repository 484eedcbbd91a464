"""Energy storage: capacitors (batteryless nodes) and batteries (baselines).

Stored energy is tracked in joules.  ``Capacitor`` models leakage but no
cycle wear — the property that makes batteryless design points viable at
the century scale.  ``Battery`` models capacity fade from both cycling
and calendar aging, the mechanism that bounds conventional nodes to the
paper's 10–15-year conventional wisdom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import units


class StorageError(ValueError):
    """Raised on invalid storage configuration or operations."""


@dataclass
class Capacitor:
    """An ideal-plus-leakage storage capacitor / supercap.

    ``capacity_j`` is usable energy between the operating thresholds.
    ``leakage_per_day`` is the fraction of *stored* energy lost per day.
    """

    capacity_j: float = 0.5
    leakage_per_day: float = 0.01
    stored_j: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise StorageError(f"capacity_j must be positive, got {self.capacity_j}")
        if not 0.0 <= self.leakage_per_day < 1.0:
            raise StorageError("leakage_per_day must be in [0, 1)")
        if not 0.0 <= self.stored_j <= self.capacity_j:
            raise StorageError("stored_j must be within [0, capacity_j]")
        # Leak factor of the last (leakage_per_day, dt) pair: a periodic
        # duty cycle leaks over the same dt report after report.
        self._leak_key = None
        self._leak_factor = 1.0

    def charge(self, energy_j: float) -> float:
        """Add energy; returns the amount actually absorbed (clipped)."""
        if energy_j < 0.0:
            raise StorageError(f"charge amount must be non-negative, got {energy_j}")
        absorbed = min(energy_j, self.capacity_j - self.stored_j)
        self.stored_j += absorbed
        return absorbed

    def discharge(self, energy_j: float) -> bool:
        """Try to draw energy; returns False (and draws nothing) if short."""
        if energy_j < 0.0:
            raise StorageError(f"discharge amount must be non-negative, got {energy_j}")
        if energy_j > self.stored_j:
            return False
        self.stored_j -= energy_j
        return True

    def leak(self, dt: float) -> None:
        """Apply leakage over ``dt`` seconds."""
        if dt < 0.0:
            raise StorageError(f"dt must be non-negative, got {dt}")
        key = (self.leakage_per_day, dt)
        if key != self._leak_key:
            self._leak_key = key
            self._leak_factor = (1.0 - self.leakage_per_day) ** units.as_days(dt)
        self.stored_j *= self._leak_factor

    @property
    def fill_fraction(self) -> float:
        """Stored energy as a fraction of capacity."""
        return self.stored_j / self.capacity_j

    @property
    def usable_capacity_j(self) -> float:
        """Current usable capacity (constant for capacitors)."""
        return self.capacity_j


@dataclass
class Battery:
    """A rechargeable battery with cycle and calendar fade.

    Capacity fades linearly with full-cycle-equivalents down to
    ``end_of_life_fraction``, plus a calendar-fade term per year.  Once
    faded to end-of-life, the battery is considered dead regardless of
    remaining charge — matching field-replacement practice.
    """

    capacity_j: float = units.milliamp_hours(2400.0, volts=3.0)
    cycle_life: float = 1500.0
    calendar_fade_per_year: float = 0.02
    end_of_life_fraction: float = 0.7
    stored_j: float = 0.0
    _cycled_j: float = field(default=0.0, repr=False)
    _age_s: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0:
            raise StorageError("capacity_j must be positive")
        if self.cycle_life <= 0.0:
            raise StorageError("cycle_life must be positive")
        if not 0.0 < self.end_of_life_fraction < 1.0:
            raise StorageError("end_of_life_fraction must be in (0, 1)")

    @property
    def full_cycle_equivalents(self) -> float:
        """Cumulative discharge expressed in full cycles."""
        return self._cycled_j / self.capacity_j

    @property
    def health(self) -> float:
        """State of health: remaining capacity fraction (1.0 = new)."""
        cycle_fade = 0.3 * (self.full_cycle_equivalents / self.cycle_life)
        calendar_fade = self.calendar_fade_per_year * units.as_years(self._age_s)
        return max(0.0, 1.0 - cycle_fade - calendar_fade)

    @property
    def usable_capacity_j(self) -> float:
        """Capacity after fade."""
        return self.capacity_j * self.health

    @property
    def dead(self) -> bool:
        """True when fade has reached the end-of-life threshold."""
        return self.health <= self.end_of_life_fraction

    def charge(self, energy_j: float) -> float:
        """Add energy up to the *faded* capacity; returns amount absorbed."""
        if energy_j < 0.0:
            raise StorageError("charge amount must be non-negative")
        if self.dead:
            return 0.0
        absorbed = min(energy_j, self.usable_capacity_j - self.stored_j)
        absorbed = max(0.0, absorbed)
        self.stored_j += absorbed
        return absorbed

    def discharge(self, energy_j: float) -> bool:
        """Draw energy, accruing cycle wear; False if insufficient/dead."""
        if energy_j < 0.0:
            raise StorageError("discharge amount must be non-negative")
        if self.dead or energy_j > self.stored_j:
            return False
        self.stored_j -= energy_j
        self._cycled_j += energy_j
        return True

    def age(self, dt: float) -> None:
        """Advance calendar aging by ``dt`` seconds."""
        if dt < 0.0:
            raise StorageError("dt must be non-negative")
        self._age_s += dt
        # Clamp stored energy to the shrunken capacity.
        self.stored_j = min(self.stored_j, self.usable_capacity_j)

    def leak(self, dt: float) -> None:
        """Self-discharge (~2 %/month) plus calendar aging."""
        self.age(dt)
        months = units.as_months(dt)
        self.stored_j *= 0.98 ** months

    @property
    def fill_fraction(self) -> float:
        """Stored energy as a fraction of *current* usable capacity."""
        usable = self.usable_capacity_j
        if usable <= 0.0:
            return 0.0
        return self.stored_j / usable
