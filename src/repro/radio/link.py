"""Wireless link model: path loss, shadowing, and packet error rate.

A log-distance path-loss model with log-normal shadowing feeds an SNR
estimate; packet success is a sigmoid around the PHY's sensitivity — the
standard abstraction for network-scale studies where bit-level fidelity
adds nothing.  Radios plug in via :class:`RadioSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class RadioSpec:
    """PHY parameters needed by the link model.

    ``sensitivity_dbm`` is the receive power at which PER is 50 %;
    ``per_slope_db`` controls how fast success saturates around it.
    """

    name: str
    frequency_hz: float
    tx_power_dbm: float
    sensitivity_dbm: float
    bitrate_bps: float
    per_slope_db: float = 1.5
    max_payload_bytes: int = 127

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise ValueError("frequency_hz must be positive")
        if self.bitrate_bps <= 0.0:
            raise ValueError("bitrate_bps must be positive")
        if self.per_slope_db <= 0.0:
            raise ValueError("per_slope_db must be positive")


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with log-normal shadowing.

    ``exponent`` 2.0 is free space; urban street canyons run 2.7–3.5;
    through-concrete embedments add ``penetration_db``.
    """

    exponent: float = 3.0
    reference_distance_m: float = 1.0
    shadowing_sigma_db: float = 6.0
    penetration_db: float = 0.0

    def __post_init__(self) -> None:
        if self.exponent < 1.0:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")
        if self.reference_distance_m <= 0.0:
            raise ValueError("reference_distance_m must be positive")
        if self.shadowing_sigma_db < 0.0:
            raise ValueError("shadowing_sigma_db must be non-negative")

    def reference_loss_db(self, frequency_hz: float) -> float:
        """Free-space loss at the reference distance (Friis)."""
        wavelength = 299_792_458.0 / frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * self.reference_distance_m / wavelength)

    def mean_loss_db(self, distance_m: float, frequency_hz: float) -> float:
        """Deterministic component of the path loss at ``distance_m``."""
        if distance_m <= 0.0:
            raise ValueError(f"distance_m must be positive, got {distance_m}")
        distance_m = max(distance_m, self.reference_distance_m)
        return (
            self.reference_loss_db(frequency_hz)
            + 10.0 * self.exponent * math.log10(distance_m / self.reference_distance_m)
            + self.penetration_db
        )

    def sample_loss_db(
        self, distance_m: float, frequency_hz: float, rng: np.random.Generator
    ) -> float:
        """Path loss including a shadowing draw."""
        shadow = self.shadowing_sigma_db * rng.standard_normal()
        return self.mean_loss_db(distance_m, frequency_hz) + shadow


def received_power_dbm(
    spec: RadioSpec, loss_db: float
) -> float:
    """Receive power for a transmission through ``loss_db`` of path."""
    return spec.tx_power_dbm - loss_db


def packet_success_probability(
    spec: RadioSpec, rx_power_dbm: float
) -> float:
    """PER model: logistic in dB around the radio's sensitivity point.

    >>> spec = RadioSpec("x", 915e6, 14.0, -120.0, 1000.0)
    >>> packet_success_probability(spec, -120.0)
    0.5
    """
    margin = rx_power_dbm - spec.sensitivity_dbm
    return 1.0 / (1.0 + math.exp(-margin / spec.per_slope_db))


@dataclass(frozen=True)
class LinkBudget:
    """Summary of one transmitter→receiver link."""

    distance_m: float
    mean_loss_db: float
    rx_power_dbm: float
    margin_db: float
    mean_success: float


def link_budget(
    spec: RadioSpec, model: PathLossModel, distance_m: float
) -> LinkBudget:
    """Deterministic (no-shadowing) link summary for planning."""
    loss = model.mean_loss_db(distance_m, spec.frequency_hz)
    rx = received_power_dbm(spec, loss)
    return LinkBudget(
        distance_m=distance_m,
        mean_loss_db=loss,
        rx_power_dbm=rx,
        margin_db=rx - spec.sensitivity_dbm,
        mean_success=packet_success_probability(spec, rx),
    )


def max_range_m(
    spec: RadioSpec,
    model: PathLossModel,
    required_success: float = 0.9,
    upper_bound_m: float = 100_000.0,
) -> float:
    """Largest distance at which mean packet success >= ``required_success``.

    Bisection on the monotone mean-success-vs-distance curve.
    """
    if not 0.0 < required_success < 1.0:
        raise ValueError("required_success must be in (0, 1)")
    lo, hi = model.reference_distance_m, upper_bound_m
    if link_budget(spec, model, lo).mean_success < required_success:
        return 0.0
    if link_budget(spec, model, hi).mean_success >= required_success:
        return hi
    for _ in range(64):
        mid = math.sqrt(lo * hi)  # geometric mid: loss is log-distance
        if link_budget(spec, model, mid).mean_success >= required_success:
            lo = mid
        else:
            hi = mid
    return lo


def coverage_radius_m(
    spec: RadioSpec, model: PathLossModel, min_success: float
) -> float:
    """Largest distance with mean (no-shadowing) success >= ``min_success``.

    The closed-form inverse of :func:`link_budget`:

        success >= p  <=>  margin >= slope * ln(p / (1 - p))
                      <=>  mean loss <= tx - sensitivity - slope * ln(p/(1-p))

    and the log-distance loss curve inverts exactly.  Returns 0.0 when
    even the reference distance fails.  Unlike :func:`max_range_m`
    (bisection converging from below), this never underestimates, so
    spatial-index range queries can use it as a superset radius and
    re-apply the exact ``link_budget`` threshold to each candidate.
    """
    if not 0.0 < min_success < 1.0:
        raise ValueError("min_success must be in (0, 1)")
    margin_db = spec.per_slope_db * math.log(min_success / (1.0 - min_success))
    max_loss_db = spec.tx_power_dbm - spec.sensitivity_dbm - margin_db
    excess_db = (
        max_loss_db
        - model.reference_loss_db(spec.frequency_hz)
        - model.penetration_db
    )
    if excess_db < 0.0:
        return 0.0
    return model.reference_distance_m * 10.0 ** (excess_db / (10.0 * model.exponent))


def attempt_delivery(
    spec: RadioSpec,
    model: PathLossModel,
    distance_m: float,
    rng: np.random.Generator,
    mean_loss_db: Optional[float] = None,
) -> bool:
    """One stochastic packet trial over the link.

    ``mean_loss_db``, when given, must be ``model.mean_loss_db(distance_m,
    spec.frequency_hz)``: a caller that keeps it per link (a link table)
    skips the ``log10``.  The draws and the IEEE-754 operations are the
    same either way.
    """
    if mean_loss_db is None:
        mean_loss_db = model.mean_loss_db(distance_m, spec.frequency_hz)
    loss = mean_loss_db + model.shadowing_sigma_db * rng.standard_normal()
    # received_power_dbm and packet_success_probability, written out:
    # this is every engine's per-trial path.
    margin = (spec.tx_power_dbm - loss) - spec.sensitivity_dbm
    return rng.random() < 1.0 / (1.0 + math.exp(-margin / spec.per_slope_db))
