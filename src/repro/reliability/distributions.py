"""Lifetime distributions and hazard models for long-lived electronics.

Everything a failure process needs: sampling, survival/hazard functions,
and composition.  The bathtub model composes an infant-mortality Weibull
(shape < 1), a constant random-failure rate, and a wear-out Weibull
(shape > 1) — the standard reliability-engineering decomposition used for
the paper's claim that low-power design points are "more robust to
long-term failures" (they shrink the wear-out term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..core import units


class LifetimeDistribution(Protocol):
    """Interface every lifetime model implements (times in seconds).

    ``draw`` and ``sample`` are one sampler at two widths: ``draw(rng)``
    returns exactly ``float(sample(rng, 1)[0])`` and leaves ``rng`` in
    the same state, because it calls the same numpy sampler once per
    value and applies the same float operations.  Code that arms one
    lifetime at a time (failure processes, cohort members) calls
    ``draw``, which skips the one-element arrays; vector callers keep
    ``sample``.
    """

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` lifetimes."""
        ...

    def draw(self, rng: np.random.Generator) -> float:
        """Draw one lifetime, value for value ``sample(rng, 1)[0]``."""
        ...

    def survival(self, t: float) -> float:
        """P(lifetime > t)."""
        ...

    def hazard(self, t: float) -> float:
        """Instantaneous failure rate at age ``t`` (per second)."""
        ...

    def mean(self) -> float:
        """Expected lifetime in seconds."""
        ...


@dataclass(frozen=True)
class Exponential:
    """Memoryless lifetime with constant hazard.

    ``scale`` is the mean lifetime in seconds.
    """

    scale: float

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.exponential(self.scale, size=n)

    def draw(self, rng: np.random.Generator) -> float:
        return rng.exponential(self.scale)

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return math.exp(-t / self.scale)

    def hazard(self, t: float) -> float:
        return 1.0 / self.scale

    def mean(self) -> float:
        return self.scale


@dataclass(frozen=True)
class Weibull:
    """Weibull lifetime; ``shape`` < 1 is infant mortality, > 1 wear-out.

    ``scale`` is the characteristic life (63.2 % failed) in seconds.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not self.shape > 0.0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def draw(self, rng: np.random.Generator) -> float:
        return self.scale * rng.weibull(self.shape)

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return math.exp(-((t / self.scale) ** self.shape))

    def hazard(self, t: float) -> float:
        if t <= 0.0:
            # Limit as t->0+: infinite for shape<1, 0 for shape>1.
            t = 1e-12 * self.scale
        return (self.shape / self.scale) * (t / self.scale) ** (self.shape - 1.0)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)


@dataclass(frozen=True)
class LogNormal:
    """Log-normal lifetime, common for corrosion / diffusion wear-out.

    ``median`` in seconds; ``sigma`` is the log-space standard deviation.
    """

    median: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.median > 0.0:
            raise ValueError(f"median must be positive, got {self.median}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.lognormal(math.log(self.median), self.sigma, size=n)

    def draw(self, rng: np.random.Generator) -> float:
        return rng.lognormal(math.log(self.median), self.sigma)

    def survival(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        z = (math.log(t) - math.log(self.median)) / self.sigma
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    def hazard(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        s = self.survival(t)
        if s <= 1e-300:
            return float("inf")
        z = (math.log(t) - math.log(self.median)) / self.sigma
        pdf = math.exp(-0.5 * z * z) / (t * self.sigma * math.sqrt(2.0 * math.pi))
        return pdf / s

    def mean(self) -> float:
        return self.median * math.exp(0.5 * self.sigma * self.sigma)


@dataclass(frozen=True)
class Deterministic:
    """A fixed lifetime — planned obsolescence, warranties, leases."""

    value: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError(f"value must be positive, got {self.value}")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return np.full(n, self.value)

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.value)

    def survival(self, t: float) -> float:
        return 1.0 if t < self.value else 0.0

    def hazard(self, t: float) -> float:
        return 0.0 if t < self.value else float("inf")

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class CompetingRisks:
    """Series system: fails when the *first* constituent risk fires.

    The survival function is the product of constituent survivals; this
    is how a device composed of battery + capacitors + PCB + radio is
    modelled, and how the bathtub curve is assembled.
    """

    risks: Sequence[LifetimeDistribution]

    def __post_init__(self) -> None:
        if not self.risks:
            raise ValueError("CompetingRisks needs at least one risk")

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        draws = np.stack([risk.sample(rng, n) for risk in self.risks])
        return draws.min(axis=0)

    def draw(self, rng: np.random.Generator) -> float:
        # Every risk draws, in risk order, as ``sample`` stacks them.
        return min([risk.draw(rng) for risk in self.risks])

    def survival(self, t: float) -> float:
        result = 1.0
        for risk in self.risks:
            result *= risk.survival(t)
        return result

    def hazard(self, t: float) -> float:
        return sum(risk.hazard(t) for risk in self.risks)

    def mean(self) -> float:
        """Numerical mean via survival-function integration."""
        horizon = 4.0 * max(risk.mean() for risk in self.risks)
        ts = np.linspace(0.0, horizon, 4096)
        values = np.array([self.survival(float(t)) for t in ts])
        return float(np.trapezoid(values, ts))


def bathtub(
    infant_scale: float = units.years(30.0),
    infant_shape: float = 0.5,
    random_mean: float = units.years(80.0),
    wearout_scale: float = units.years(20.0),
    wearout_shape: float = 4.0,
) -> CompetingRisks:
    """The classic three-phase bathtub hazard as competing risks.

    Defaults describe commodity electronics: rare early defects, a low
    constant random-failure floor, and wear-out concentrating around
    ``wearout_scale``.
    """
    return CompetingRisks(
        risks=(
            Weibull(shape=infant_shape, scale=infant_scale),
            Exponential(scale=random_mean),
            Weibull(shape=wearout_shape, scale=wearout_scale),
        )
    )


def mean_lifetime_years(dist: LifetimeDistribution) -> float:
    """Convenience: expected lifetime expressed in Julian years."""
    return units.as_years(dist.mean())
