"""Typed fault specifications and targeting selectors.

A :class:`FaultSpec` is a frozen, declarative description of one
injected fault: *what* happens (kill, degrade, flap, drain, …), *when*
(absolute simulation time), and *to whom* (a :class:`Selector`).  Specs
compile against a running :class:`~repro.core.engine.Simulation` through
the plan's controller (:mod:`repro.faults.plan`), which schedules plain
engine events — fault execution therefore rides the same deterministic
``(time, priority, sequence)`` order as everything else.

Determinism contract
--------------------
Randomized targeting (``k-random-of`` selection, churn bursts) draws
only from a stream named after the spec's *content key* (see
:meth:`FaultSpec.key`), never from a stream shared with the simulation
proper.  Two consequences:

* a plan + seed is bit-reproducible at any worker count (streams are
  derived in-process from the run seed, like every other stream);
* disjoint plans compose commutatively — the stream name depends on the
  spec, not on its position in a plan or the order plans were installed.

Selectors resolve *at fire time*, not at install time, so a fault aimed
at "two random live gateways" sees the population as it exists when the
fault strikes, including replacements and churn arrivals.

``delivery_gating`` marks specs that only gate packet delivery on the
backhaul/cloud path (forced degrades of those tiers, wallet drains,
custodian lapses).  Such faults change **no** RNG draw sequence — every
radio, energy, and churn draw happens upstream of the gate — so adding
them to a plan can only remove deliveries.  This is the exact
monotonicity the metamorphic property suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.engine import Simulation
    from .plan import FaultController

#: Tiers whose forced degradation gates delivery without touching any
#: shared RNG stream (see the module docstring).
DELIVERY_GATING_TIERS = frozenset({"backhaul", "cloud"})

_SELECTOR_MODES = ("name", "tier", "k-random", "blast-radius")


def _blast_size(entity: Any) -> int:
    """Transitive dependent count — the Figure-1 blast radius of ``entity``."""
    seen = set()
    frontier = list(getattr(entity, "dependents", ()))
    while frontier:
        node = frontier.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        frontier.extend(getattr(node, "dependents", ()))
    return len(seen)


@dataclass(frozen=True)
class Selector:
    """Which entities a fault strikes, resolved at fire time.

    ``by`` picks the mode:

    * ``"name"`` — the entities in ``names`` (those currently alive);
    * ``"tier"`` — every live entity of ``tier`` matching ``where``;
    * ``"k-random"`` — ``k`` drawn without replacement from the ``tier``/
      ``where`` pool, from the spec's own named stream;
    * ``"blast-radius"`` — the ``k`` live entities with the largest
      transitive dependent count (ties broken by name).

    ``where`` is a tuple of ``(attribute, value)`` equality filters; the
    attribute is looked up on the entity, falling back to its ``tags``,
    and compared as a string (e.g. ``("technology", "lora")``).
    """

    by: str = "tier"
    tier: Optional[str] = None
    names: Tuple[str, ...] = ()
    k: Optional[int] = None
    where: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.by not in _SELECTOR_MODES:
            raise ValueError(f"unknown selector mode {self.by!r}; options: {_SELECTOR_MODES}")
        if self.by == "name" and not self.names:
            raise ValueError("by='name' requires at least one name")
        if self.by in ("k-random", "blast-radius") and (self.k is None or self.k < 1):
            raise ValueError(f"by={self.by!r} requires k >= 1")

    # -- constructors ---------------------------------------------------
    @classmethod
    def by_name(cls, *names: str) -> "Selector":
        return cls(by="name", names=tuple(names))

    @classmethod
    def by_tier(cls, tier: str, where: Tuple[Tuple[str, str], ...] = ()) -> "Selector":
        return cls(by="tier", tier=tier, where=where)

    @classmethod
    def k_random(
        cls,
        k: int,
        tier: Optional[str] = None,
        where: Tuple[Tuple[str, str], ...] = (),
    ) -> "Selector":
        return cls(by="k-random", tier=tier, k=k, where=where)

    @classmethod
    def blast_radius(cls, k: int = 1, tier: Optional[str] = None) -> "Selector":
        return cls(by="blast-radius", tier=tier, k=k)

    # -- resolution -----------------------------------------------------
    @property
    def needs_rng(self) -> bool:
        """True if resolution consumes randomness (k-random only)."""
        return self.by == "k-random"

    def _matches(self, entity: Any) -> bool:
        if self.tier is not None and getattr(entity, "TIER", None) != self.tier:
            return False
        if self.names and entity.name not in self.names:
            return False
        for attribute, expected in self.where:
            actual = getattr(entity, attribute, None)
            if actual is None:
                actual = getattr(entity, "tags", {}).get(attribute)
            if actual is None or str(actual) != expected:
                return False
        return True

    def resolve(self, sim: "Simulation", rng: Optional[Any] = None) -> List[Any]:
        """The live entities this selector targets right now.

        The candidate pool is sorted by name before any sampling, so the
        resolution is independent of entity registration order.
        """
        pool = [
            e
            for e in sim.entities
            if getattr(e, "alive", False) and self._matches(e)
        ]
        pool.sort(key=lambda e: e.name)
        if self.by in ("name", "tier"):
            return pool
        if self.by == "k-random":
            count = min(self.k or 0, len(pool))
            if count == 0:
                return []
            if rng is None:
                raise ValueError("k-random selection requires an rng")
            chosen = rng.choice(len(pool), size=count, replace=False)
            return [pool[i] for i in sorted(int(i) for i in chosen)]
        # blast-radius: largest transitive dependent sets first.
        pool.sort(key=lambda e: (-_blast_size(e), e.name))
        return pool[: self.k or 1]

    # -- identity / serialization --------------------------------------
    def key(self) -> str:
        """Stable content key used in stream names and event labels."""
        parts = [self.by]
        if self.tier is not None:
            parts.append(f"tier={self.tier}")
        if self.names:
            parts.append("names=" + "+".join(self.names))
        if self.k is not None:
            parts.append(f"k={self.k}")
        for attribute, expected in self.where:
            parts.append(f"{attribute}={expected}")
        return ",".join(parts)

    def to_dict(self) -> dict:
        payload: dict = {"by": self.by}
        if self.tier is not None:
            payload["tier"] = self.tier
        if self.names:
            payload["names"] = list(self.names)
        if self.k is not None:
            payload["k"] = self.k
        if self.where:
            payload["where"] = {attribute: value for attribute, value in self.where}
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Selector":
        where = tuple(sorted(dict(payload.get("where", {})).items()))
        return cls(
            by=payload.get("by", "tier"),
            tier=payload.get("tier"),
            names=tuple(payload.get("names", ())),
            k=payload.get("k"),
            where=where,
        )


@dataclass(frozen=True)
class FaultSpec:
    """Base fault: ``at`` is the absolute injection time in seconds."""

    KIND: ClassVar[str] = ""

    at: float

    def __post_init__(self) -> None:
        if self.at < 0.0:
            raise ValueError(f"fault time must be non-negative, got {self.at}")

    @property
    def delivery_gating(self) -> bool:
        """True if this fault only gates delivery (see module docstring)."""
        return False

    def key(self) -> str:
        """Content-derived identity: names the spec's RNG stream and labels."""
        return f"{self.KIND}@{self.at:g}[{self._key_detail()}]"

    def _key_detail(self) -> str:
        return ""

    def schedule(self, sim: "Simulation", controller: "FaultController") -> None:
        """Compile this spec into engine events (default: one, at ``at``)."""
        controller.schedule(self, self.at, lambda: self.fire(sim, controller))

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        raise NotImplementedError


@dataclass(frozen=True)
class KillFault(FaultSpec):
    """Permanently fail (or retire) the selected entities.

    Covers device, gateway, backhaul, and cloud kills: the tier comes
    from the selector.  Kills are final — the entity state machine does
    not un-fail; recovery is whatever the scenario's maintenance logic
    (or a test's redeploy) does about it.
    """

    KIND: ClassVar[str] = "kill"

    select: Selector = field(default_factory=Selector)
    reason: str = "fault-injected"
    mode: str = "fail"  # "fail" (breakage) or "retire" (deliberate removal)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("fail", "retire"):
            raise ValueError(f"mode must be 'fail' or 'retire', got {self.mode!r}")

    def _key_detail(self) -> str:
        detail = self.select.key()
        return detail if self.mode == "fail" else f"{detail},retire"

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        rng = controller.stream_for(self) if self.select.needs_rng else None
        targets = self.select.resolve(sim, rng)
        for entity in targets:
            if self.mode == "retire":
                entity.retire(reason=self.reason)
            else:
                entity.fail(reason=self.reason)
        controller.note(self, "kill", [e.name for e in targets])

    def to_dict(self) -> dict:
        payload = {"kind": self.KIND, "at_s": self.at, "select": self.select.to_dict()}
        if self.reason != "fault-injected":
            payload["reason"] = self.reason
        if self.mode != "fail":
            payload["mode"] = self.mode
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "KillFault":
        return cls(
            at=_time_from(payload, "at"),
            select=Selector.from_dict(payload["select"]),
            reason=payload.get("reason", "fault-injected"),
            mode=payload.get("mode", "fail"),
        )


@dataclass(frozen=True)
class DegradeFault(FaultSpec):
    """Suspend the selected entities' service for ``duration`` seconds.

    Targets are resolved at the window's leading edge and restored — by
    identity — at the trailing edge, even if they died in between
    (restoring a dead entity is harmless).  Degrading a backhaul or the
    cloud endpoint is delivery-gating; degrading a gateway or device is
    not (it changes which radio links get tried, shifting shared-stream
    draws).
    """

    KIND: ClassVar[str] = "degrade"

    select: Selector = field(default_factory=Selector)
    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def delivery_gating(self) -> bool:
        return self.select.tier in DELIVERY_GATING_TIERS

    def _key_detail(self) -> str:
        return f"{self.select.key()},for={self.duration:g}"

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        rng = controller.stream_for(self) if self.select.needs_rng else None
        targets = self.select.resolve(sim, rng)
        for entity in targets:
            entity.force_degrade(reason=self.key())
        controller.note(self, "degrade", [e.name for e in targets])

        def restore(_targets: tuple = tuple(targets)) -> None:
            for entity in _targets:
                entity.restore_degrade(reason=self.key())
            controller.note(self, "restore", [e.name for e in _targets])

        controller.schedule(self, sim.now + self.duration, restore, prefix="restore")

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "at_s": self.at,
            "duration_s": self.duration,
            "select": self.select.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DegradeFault":
        return cls(
            at=_time_from(payload, "at"),
            select=Selector.from_dict(payload["select"]),
            duration=_time_from(payload, "duration"),
        )


@dataclass(frozen=True)
class FlapFault(FaultSpec):
    """A flapping link: ``cycles`` repetitions of down ``down`` / up ``up``.

    Radio-link flap when aimed at gateways; backhaul flap when aimed at
    a backhaul (the latter is delivery-gating).  Each down edge resolves
    the selector afresh, so replacements flap too.
    """

    KIND: ClassVar[str] = "flap"

    select: Selector = field(default_factory=Selector)
    down: float = 0.0
    up: float = 0.0
    cycles: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down <= 0.0 or self.up <= 0.0:
            raise ValueError("down and up durations must be positive")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")

    @property
    def delivery_gating(self) -> bool:
        return self.select.tier in DELIVERY_GATING_TIERS

    def _key_detail(self) -> str:
        return (
            f"{self.select.key()},down={self.down:g},up={self.up:g},"
            f"x{self.cycles}"
        )

    def schedule(self, sim: "Simulation", controller: "FaultController") -> None:
        period = self.down + self.up
        for cycle in range(self.cycles):
            controller.schedule(
                self,
                self.at + cycle * period,
                lambda: self._down_edge(sim, controller),
            )

    def _down_edge(self, sim: "Simulation", controller: "FaultController") -> None:
        rng = controller.stream_for(self) if self.select.needs_rng else None
        targets = self.select.resolve(sim, rng)
        for entity in targets:
            entity.force_degrade(reason=self.key())
        controller.note(self, "flap-down", [e.name for e in targets])

        def up_edge(_targets: tuple = tuple(targets)) -> None:
            for entity in _targets:
                entity.restore_degrade(reason=self.key())
            controller.note(self, "flap-up", [e.name for e in _targets])

        controller.schedule(self, sim.now + self.down, up_edge, prefix="restore")

    def to_dict(self) -> dict:
        return {
            "kind": self.KIND,
            "at_s": self.at,
            "down_s": self.down,
            "up_s": self.up,
            "cycles": self.cycles,
            "select": self.select.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FlapFault":
        return cls(
            at=_time_from(payload, "at"),
            select=Selector.from_dict(payload["select"]),
            down=_time_from(payload, "down"),
            up=_time_from(payload, "up"),
            cycles=int(payload.get("cycles", 1)),
        )


@dataclass(frozen=True)
class HotspotChurnBurst(FaultSpec):
    """``k`` random live LoRa hotspots unplug at once (correlated churn).

    The Helium stress case: a token-price crash or firmware brick takes
    a slice of the third-party population out simultaneously instead of
    via independent owner churn.
    """

    KIND: ClassVar[str] = "churn-burst"

    k: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def _key_detail(self) -> str:
        return f"k={self.k}"

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        select = Selector.k_random(
            self.k, tier="gateway", where=(("technology", "lora"),)
        )
        targets = select.resolve(sim, controller.stream_for(self))
        for hotspot in targets:
            hotspot.retire(reason="churn-burst")
        controller.note(self, "churn-burst", [h.name for h in targets])

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "at_s": self.at, "k": self.k}

    @classmethod
    def from_dict(cls, payload: dict) -> "HotspotChurnBurst":
        return cls(at=_time_from(payload, "at"), k=int(payload["k"]))


@dataclass(frozen=True)
class WalletDrain(FaultSpec):
    """Remove credits from a registered wallet resource.

    Exactly one of ``fraction``/``credits``.  Delivery-gating: the debit
    path holds no randomness, so a drained wallet only converts later
    forwards into refusals.  A missing resource makes the fault a
    recorded no-op (the scenario has no wallet to drain).
    """

    KIND: ClassVar[str] = "wallet-drain"

    fraction: Optional[float] = None
    credits: Optional[int] = None
    resource: str = "wallet"

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.fraction is None) == (self.credits is None):
            raise ValueError("give exactly one of fraction= or credits=")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.credits is not None and self.credits < 0:
            raise ValueError(f"credits must be non-negative, got {self.credits}")

    @property
    def delivery_gating(self) -> bool:
        return True

    def _key_detail(self) -> str:
        amount = (
            f"frac={self.fraction:g}" if self.fraction is not None
            else f"credits={self.credits}"
        )
        return f"{self.resource},{amount}"

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        wallet = sim.resources.get(self.resource)
        if wallet is None:
            controller.note(self, "wallet-drain-skipped", [])
            return
        removed = wallet.drain(credits=self.credits, fraction=self.fraction)
        controller.note(self, f"wallet-drain({removed})", [self.resource])

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.KIND, "at_s": self.at}
        if self.fraction is not None:
            payload["fraction"] = self.fraction
        if self.credits is not None:
            payload["credits"] = self.credits
        if self.resource != "wallet":
            payload["resource"] = self.resource
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "WalletDrain":
        return cls(
            at=_time_from(payload, "at"),
            fraction=payload.get("fraction"),
            credits=payload.get("credits"),
            resource=payload.get("resource", "wallet"),
        )


@dataclass(frozen=True)
class MaintenanceNoShow(FaultSpec):
    """Nobody answers the pager for ``duration`` seconds.

    While the window is open, replacement visits (gateway swaps, renewal
    processes) are deferred to the window's end instead of executing —
    the §4.5 custodial-neglect case for *field* maintenance.  The window
    is registered at install time; the scheduled event at ``at`` only
    records the fault in the stream.
    """

    KIND: ClassVar[str] = "maintenance-no-show"

    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    def _key_detail(self) -> str:
        return f"for={self.duration:g}"

    def schedule(self, sim: "Simulation", controller: "FaultController") -> None:
        controller.add_no_show_window(self.at, self.at + self.duration)
        super().schedule(sim, controller)

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        controller.note(self, "maintenance-no-show", [])

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "at_s": self.at, "duration_s": self.duration}

    @classmethod
    def from_dict(cls, payload: dict) -> "MaintenanceNoShow":
        return cls(
            at=_time_from(payload, "at"), duration=_time_from(payload, "duration")
        )


@dataclass(frozen=True)
class CustodianLapse(FaultSpec):
    """The endpoint's custodian stops paying attention for ``duration``.

    Degrades every live cloud-tier entity (the public page goes dark,
    deliveries are refused) and restores at the window's end — §4.5's
    institutional-memory failure, as a fault.  Delivery-gating.
    """

    KIND: ClassVar[str] = "custodian-lapse"

    duration: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def delivery_gating(self) -> bool:
        return True

    def _key_detail(self) -> str:
        return f"for={self.duration:g}"

    def fire(self, sim: "Simulation", controller: "FaultController") -> None:
        targets = Selector.by_tier("cloud").resolve(sim)
        for endpoint in targets:
            endpoint.force_degrade(reason=self.key())
        controller.note(self, "custodian-lapse", [e.name for e in targets])

        def restore(_targets: tuple = tuple(targets)) -> None:
            for endpoint in _targets:
                endpoint.restore_degrade(reason=self.key())
            controller.note(self, "custodian-return", [e.name for e in _targets])

        controller.schedule(self, sim.now + self.duration, restore, prefix="restore")

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "at_s": self.at, "duration_s": self.duration}

    @classmethod
    def from_dict(cls, payload: dict) -> "CustodianLapse":
        return cls(
            at=_time_from(payload, "at"), duration=_time_from(payload, "duration")
        )


#: JSON ``kind`` -> spec class, in catalog order.
SPEC_KINDS = {
    cls.KIND: cls
    for cls in (
        KillFault,
        DegradeFault,
        FlapFault,
        HotspotChurnBurst,
        WalletDrain,
        MaintenanceNoShow,
        CustodianLapse,
    )
}

#: Accepted time-field suffixes in plan JSON, with seconds conversions.
_TIME_SUFFIXES: Tuple[Tuple[str, float], ...] = (
    ("_s", 1.0),
    ("_hours", 3600.0),
    ("_days", 86400.0),
    ("_years", 365.25 * 86400.0),
)


def _time_from(payload: dict, fieldname: str) -> float:
    """Read a duration field with an explicit unit suffix.

    Exactly one of ``<field>_s`` / ``<field>_hours`` / ``<field>_days`` /
    ``<field>_years`` must be present — bare unsuffixed numbers are
    rejected so plan files stay unit-unambiguous (the simlint SL-series
    hygiene, applied to data).
    """
    present = [
        (suffix, factor)
        for suffix, factor in _TIME_SUFFIXES
        if fieldname + suffix in payload
    ]
    if len(present) != 1:
        options = ", ".join(fieldname + suffix for suffix, _ in _TIME_SUFFIXES)
        raise ValueError(
            f"fault needs exactly one of {options} (got {sorted(payload)})"
        )
    suffix, factor = present[0]
    return float(payload[fieldname + suffix]) * factor
