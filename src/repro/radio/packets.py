"""Packet and reading primitives shared across the network layer.

The paper's initial devices are transmit-only monitoring sensors: up to
24-byte payloads (the Helium data-credit accounting unit), a reading,
and a signature the device can never rotate — which is why §4.1 calls
their longitudinal trust "limited".

The forwarding path carries no packet objects: a device hands its name
and :func:`credit_units` to the gateway, and the endpoint folds each
arrival into per-week summaries.  :class:`Packet` and :class:`Reading`
describe the frame for code that wants one
(:meth:`~repro.net.device.EdgeDevice.make_packet`); both are frozen
*slotted* dataclasses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Helium charges one data credit per 24-byte message (§4.4).
CREDIT_UNIT_BYTES: int = 24

_sequence = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Reading:
    """One sensor observation."""

    kind: str          # e.g. "concrete-health", "strain", "temperature"
    value: float
    unit: str = ""


@dataclass(frozen=True, slots=True)
class Packet:
    """An uplink frame from a transmit-only device.

    ``signed_with`` names the immutable factory key; verification policy
    is the backend's problem (devices cannot be re-keyed, per §4.1).
    """

    source: str
    created_at: float
    payload_bytes: int
    reading: Optional[Reading] = None
    signed_with: str = ""
    sequence: int = field(default_factory=_sequence.__next__)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be non-negative, got {self.payload_bytes}")

    @property
    def credit_units(self) -> int:
        """Data credits this packet costs (see :func:`credit_units`)."""
        return credit_units(self.payload_bytes)


def credit_units(payload_bytes: int) -> int:
    """Data credits one ``payload_bytes`` message costs on a Helium-style
    network.

    One credit per started 24-byte unit; a zero-byte heartbeat still
    costs one credit.
    """
    if payload_bytes == 0:
        return 1
    return -(-payload_bytes // CREDIT_UNIT_BYTES)  # ceil div
