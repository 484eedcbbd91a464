"""IEEE 802.15.4 (2.4 GHz O-QPSK) PHY/MAC model.

The paper's "owned infrastructure" radio.  Provides frame-airtime
arithmetic from the standard's PPDU structure, a default
:class:`~repro.radio.link.RadioSpec`, and typical urban coverage
parameters.  250 kbps, 127-byte maximum PSDU.
"""

from __future__ import annotations

from dataclasses import dataclass

from .link import PathLossModel, RadioSpec

#: PHY constants for 2.4 GHz O-QPSK (IEEE 802.15.4-2015).
BITRATE_BPS: float = 250_000.0
PREAMBLE_BYTES: int = 4
SFD_BYTES: int = 1
PHR_BYTES: int = 1
MAX_PSDU_BYTES: int = 127
MAC_OVERHEAD_BYTES: int = 11  # FCF + seq + short addressing
FCS_BYTES: int = 2
#: Largest MAC payload one data frame can carry.
MAX_PAYLOAD_BYTES: int = MAX_PSDU_BYTES - MAC_OVERHEAD_BYTES - FCS_BYTES


def frame_bytes(payload_bytes: int) -> int:
    """Total over-the-air bytes for a data frame carrying ``payload_bytes``.

    Raises if the MAC payload would exceed the 127-byte PSDU.
    """
    if payload_bytes < 0:
        raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
    psdu = MAC_OVERHEAD_BYTES + payload_bytes + FCS_BYTES
    if psdu > MAX_PSDU_BYTES:
        raise ValueError(
            f"payload of {payload_bytes} B exceeds 802.15.4 PSDU "
            f"({psdu} > {MAX_PSDU_BYTES})"
        )
    return PREAMBLE_BYTES + SFD_BYTES + PHR_BYTES + psdu


def airtime_s(payload_bytes: int) -> float:
    """Transmission time for one frame.

    >>> round(airtime_s(24) * 1e3, 3)   # 24-byte payload
    1.376
    """
    return frame_bytes(payload_bytes) * 8.0 / BITRATE_BPS


def default_spec(tx_power_dbm: float = 0.0) -> RadioSpec:
    """A typical 802.15.4 SoC: 0 dBm out, -100 dBm sensitivity."""
    return RadioSpec(
        name="802.15.4",
        frequency_hz=2.45e9,
        tx_power_dbm=tx_power_dbm,
        sensitivity_dbm=-100.0,
        bitrate_bps=BITRATE_BPS,
        per_slope_db=1.2,
        max_payload_bytes=MAX_PAYLOAD_BYTES,
    )


def urban_path_loss(embedded: bool = False) -> PathLossModel:
    """Urban propagation at 2.4 GHz; embedding in concrete costs ~12 dB."""
    return PathLossModel(
        exponent=3.1,
        shadowing_sigma_db=7.0,
        penetration_db=12.0 if embedded else 0.0,
    )


@dataclass(frozen=True)
class CsmaParameters:
    """Unslotted CSMA-CA backoff parameters (transmit-only nodes still
    clear-channel assess before blurting)."""

    min_be: int = 3
    max_be: int = 5
    max_backoffs: int = 4
    unit_backoff_s: float = 20.0 * 16.0 / 1e6  # 20 symbols @ 16 µs

    def mean_backoff_s(self) -> float:
        """Expected total backoff before first transmission attempt."""
        # Mean of uniform(0, 2^BE - 1) unit backoffs at the initial BE.
        return (2 ** self.min_be - 1) / 2.0 * self.unit_backoff_s
