"""Energy-harvesting source models.

The paper leans on "Ambient Batteries" (refs [20, 21]): stable,
battery-like ambient energy sources — canonically the cathodic-
protection current of rebar corroding inside concrete — that could power
deployed systems for decades.  Each source exposes ``power_at(t, rng)``,
the instantaneous harvestable power in watts, so the intermittency
machinery can integrate it over arbitrary schedules.

Models are intentionally simple (diurnal/seasonal sinusoids plus noise
and slow degradation) but preserve what matters for century-scale
reasoning: mean power level, variability, and degradation trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..core import units


class EnergySource(Protocol):
    """Interface for all harvesters (power in watts, time in seconds)."""

    def power_at(self, t: float, rng: np.random.Generator) -> float:
        """Instantaneous harvestable power at simulation time ``t``."""
        ...

    def power_at_many(
        self, t: float, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        """Vectorized ``power_at``: ``n`` devices sampled at the same
        instant.  Bit-equivalent to ``n`` sequential ``power_at`` calls
        on the same generator — numpy array draws consume the stream in
        the same order as repeated scalar draws, and every arithmetic
        step is the same IEEE-754 float64 operation elementwise.  This
        is the contract that lets a cohort batch its members without
        perturbing plan+seed determinism.
        """
        ...

    def mean_power(self) -> float:
        """Long-run average power, ignoring noise."""
        ...


@dataclass(frozen=True)
class CathodicProtectionSource:
    """The rebar-corrosion "ambient battery" of refs [20, 21].

    Cathodic-protection systems impress a small, *stable* DC current to
    protect embedded steel; tapping it yields a near-constant trickle for
    as long as the structure exists.  Power declines very slowly as the
    anode system ages (``degradation_per_year`` fractional loss), with
    small measurement-scale noise.
    """

    nominal_power_w: float = 500e-6  # 500 µW — a realistic CP tap
    degradation_per_year: float = 0.005
    noise_fraction: float = 0.02

    def power_at(self, t: float, rng: np.random.Generator) -> float:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        age_years = t / units.YEAR  # units.as_years, without the call
        level = self.nominal_power_w * (1.0 - self.degradation_per_year) ** age_years
        noise = 1.0 + self.noise_fraction * rng.standard_normal()
        power = level * noise
        return power if power > 0.0 else 0.0  # max(0.0, power), without the call

    def power_at_many(
        self, t: float, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        age_years = t / units.YEAR
        # The aging power stays a Python-scalar ``**`` so it rounds
        # identically to the scalar path; only the noise is an array.
        level = self.nominal_power_w * (1.0 - self.degradation_per_year) ** age_years
        noise = 1.0 + self.noise_fraction * rng.standard_normal(n)
        return np.maximum(0.0, level * noise)

    def mean_power(self) -> float:
        return self.nominal_power_w


@dataclass(frozen=True)
class SolarSource:
    """Small photovoltaic harvester with diurnal and seasonal cycles.

    Night yields zero; day follows a half-sinusoid peaking at
    ``peak_power_w`` scaled by season.  Panels degrade ~0.5 %/yr and
    weather introduces heavy-tailed down-scaling (cloud cover).
    """

    peak_power_w: float = 50e-3
    seasonal_swing: float = 0.3       # ±30 % summer/winter
    degradation_per_year: float = 0.005
    cloud_fraction: float = 0.35      # probability an hour is cloudy
    cloud_attenuation: float = 0.15   # power multiplier under cloud

    def power_at(self, t: float, rng: np.random.Generator) -> float:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        # Daylight window 06:00–18:00 as a half-sine.
        if not 0.25 <= day_phase <= 0.75:
            return 0.0
        diurnal = math.sin((day_phase - 0.25) / 0.5 * math.pi)
        year_phase = (t % units.YEAR) / units.YEAR
        seasonal = 1.0 + self.seasonal_swing * math.cos(2.0 * math.pi * year_phase)
        age_years = units.as_years(t)
        aging = (1.0 - self.degradation_per_year) ** age_years
        weather = self.cloud_attenuation if rng.random() < self.cloud_fraction else 1.0
        return self.peak_power_w * diurnal * seasonal * aging * weather

    def power_at_many(
        self, t: float, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        if not 0.25 <= day_phase <= 0.75:
            # Night: the scalar path returns before touching the rng, so
            # the vectorized path must not draw either.
            return np.zeros(n)
        diurnal = math.sin((day_phase - 0.25) / 0.5 * math.pi)
        year_phase = (t % units.YEAR) / units.YEAR
        seasonal = 1.0 + self.seasonal_swing * math.cos(2.0 * math.pi * year_phase)
        age_years = units.as_years(t)
        aging = (1.0 - self.degradation_per_year) ** age_years
        weather = np.where(
            rng.random(n) < self.cloud_fraction, self.cloud_attenuation, 1.0
        )
        # Match the scalar left-to-right product: the deterministic
        # factors fold into one Python scalar, then multiply the array.
        base = self.peak_power_w * diurnal * seasonal * aging
        return base * weather

    def mean_power(self) -> float:
        # Half-sine day (mean 2/pi over 12h -> 1/pi over 24h), mean weather.
        weather = (
            self.cloud_fraction * self.cloud_attenuation
            + (1.0 - self.cloud_fraction)
        )
        return self.peak_power_w / math.pi * weather

    def is_daylight(self, t: float) -> bool:
        """True during the 06:00–18:00 generation window."""
        day_phase = (t % units.DAY) / units.DAY
        return 0.25 <= day_phase <= 0.75


@dataclass(frozen=True)
class VibrationSource:
    """Piezo/electromagnetic harvester on trafficked infrastructure.

    Power tracks traffic intensity: a double-peaked weekday rush-hour
    profile, quieter weekends, shot-noise bursts from heavy vehicles.
    """

    rms_power_w: float = 100e-6
    weekend_factor: float = 0.55
    burst_probability: float = 0.05
    burst_gain: float = 4.0

    def power_at(self, t: float, rng: np.random.Generator) -> float:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        hour = day_phase * 24.0
        rush = math.exp(-((hour - 8.5) ** 2) / 4.0) + math.exp(
            -((hour - 17.5) ** 2) / 4.0
        )
        base = 0.15 + rush  # overnight floor plus rush peaks
        weekday = int(t // units.DAY) % 7
        if weekday >= 5:
            base *= self.weekend_factor
        burst = self.burst_gain if rng.random() < self.burst_probability else 1.0
        return self.rms_power_w * base * burst

    def power_at_many(
        self, t: float, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        hour = day_phase * 24.0
        rush = math.exp(-((hour - 8.5) ** 2) / 4.0) + math.exp(
            -((hour - 17.5) ** 2) / 4.0
        )
        base = 0.15 + rush
        weekday = int(t // units.DAY) % 7
        if weekday >= 5:
            base *= self.weekend_factor
        burst = np.where(
            rng.random(n) < self.burst_probability, self.burst_gain, 1.0
        )
        return self.rms_power_w * base * burst

    def mean_power(self) -> float:
        # Numerically averaged profile factor (~0.62 weekday-weighted).
        return self.rms_power_w * 0.62


@dataclass(frozen=True)
class ThermalGradientSource:
    """TEG across a structure/ambient thermal gradient.

    Strongest when day/night swing is largest; near-zero in thermal
    equilibrium around dawn/dusk crossings.
    """

    peak_power_w: float = 80e-6
    seasonal_swing: float = 0.2

    def power_at(self, t: float, rng: np.random.Generator) -> float:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        gradient = abs(math.sin(2.0 * math.pi * day_phase))
        year_phase = (t % units.YEAR) / units.YEAR
        seasonal = 1.0 + self.seasonal_swing * math.sin(2.0 * math.pi * year_phase)
        jitter = 1.0 + 0.05 * rng.standard_normal()
        return max(0.0, self.peak_power_w * gradient * seasonal * jitter)

    def power_at_many(
        self, t: float, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        if t < 0.0:
            raise ValueError(f"t must be non-negative, got {t}")
        day_phase = (t % units.DAY) / units.DAY
        gradient = abs(math.sin(2.0 * math.pi * day_phase))
        year_phase = (t % units.YEAR) / units.YEAR
        seasonal = 1.0 + self.seasonal_swing * math.sin(2.0 * math.pi * year_phase)
        jitter = 1.0 + 0.05 * rng.standard_normal(n)
        base = self.peak_power_w * gradient * seasonal
        return np.maximum(0.0, base * jitter)

    def mean_power(self) -> float:
        return self.peak_power_w * 2.0 / math.pi


def source_by_name(name: str) -> EnergySource:
    """Factory keyed by the harvester names used across the library."""
    factories = {
        "cathodic": CathodicProtectionSource,
        "solar": SolarSource,
        "vibration": VibrationSource,
        "thermal": ThermalGradientSource,
    }
    if name not in factories:
        raise ValueError(f"unknown source {name!r}; options: {sorted(factories)}")
    return factories[name]()
