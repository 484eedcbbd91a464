"""Radio substrate: link model, 802.15.4 and LoRa PHYs, packets."""

from . import channel, ieee802154, lora
from .channel import (
    ChannelLoad,
    CongestionPoint,
    capacity_table,
    density_sweep,
    max_devices_for_reliability,
)
from .link import (
    LinkBudget,
    PathLossModel,
    RadioSpec,
    attempt_delivery,
    coverage_radius_m,
    link_budget,
    max_range_m,
    packet_success_probability,
    received_power_dbm,
)
from .lora import EU868, US915, LoRaParameters, RegionalLimits
from .packets import CREDIT_UNIT_BYTES, Packet, Reading, credit_units

__all__ = [
    "channel",
    "ChannelLoad",
    "CongestionPoint",
    "capacity_table",
    "density_sweep",
    "max_devices_for_reliability",
    "ieee802154",
    "lora",
    "LinkBudget",
    "PathLossModel",
    "RadioSpec",
    "attempt_delivery",
    "coverage_radius_m",
    "link_budget",
    "max_range_m",
    "packet_success_probability",
    "received_power_dbm",
    "EU868",
    "US915",
    "LoRaParameters",
    "RegionalLimits",
    "CREDIT_UNIT_BYTES",
    "Packet",
    "Reading",
    "credit_units",
]
