"""Fault plans, the run-time controller, and the JSON plan format.

A :class:`FaultPlan` is a named, frozen bundle of
:class:`~repro.faults.spec.FaultSpec` instances.  Installing it against
a :class:`~repro.core.engine.Simulation` (via
:meth:`~repro.core.engine.Simulation.install_faults`) creates — or
extends — the run's single :class:`FaultController`, which:

* schedules every spec as ordinary engine events (labelled
  ``fault:<spec key>`` / ``restore:<spec key>``), so injected faults
  execute in the same deterministic ``(time, priority, sequence)``
  order as everything else;
* hands each spec its own named RNG stream (``faults:<spec key>``) for
  randomized targeting, so composition order and worker count cannot
  change a draw;
* keeps the executed *fault event stream* — an ordered record of every
  fault action that actually fired, with sim-time and target names —
  which the property suite compares across worker counts;
* tracks maintenance *no-show windows* that the repair paths
  (:mod:`repro.reliability.failure`, the fifty-year experiment's
  gateway replacement) consult through ``sim.fault_controller``.

JSON plan format (version 1)::

    {"version": 1, "name": "ten-fault-chaos", "faults": [
        {"kind": "kill", "at_years": 5, "select": {"by": "tier", "tier": "gateway"}},
        {"kind": "wallet-drain", "at_years": 12, "fraction": 0.5}]}

Each fault is its ``kind`` plus that kind's fields (``?``: optional,
taking the constructor's default)::

    kill                 at, select, reason?, mode?
    degrade              at, select, duration
    flap                 at, select, down, up, cycles?
    churn-burst          at, k?
    wallet-drain         at, fraction? or credits?, resource?
    maintenance-no-show  at, duration
    custodian-lapse      at, duration
    select               by?, tier?, names?, k?, where?

Time fields (at, duration, down, up) are numbers with exactly one unit
suffix: ``_s``, ``_hours``, ``_days`` or ``_years``.  ``k``, ``cycles``
and ``credits`` are integers, ``fraction`` a number, ``names`` a list of
strings, ``select`` and ``where`` objects, the rest strings.  Reading is
strict: a bool is never a number, numbers are finite, ``null`` stands
only for a ``None`` default, and unknown fields are refused; each error
is one :class:`FaultPlanError` naming the fault's index, kind and field.
The canonical form (:meth:`FaultPlan.to_dict`, which the serve cache and
shard digests hash) writes times as ``<name>_s`` and leaves ``reason``,
``mode``, ``resource`` and the optional selector and wallet fields out
at their defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Tuple

from .spec import SPEC_KINDS, FaultSpec, Selector

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.engine import Simulation

#: The JSON plan format version this module reads and writes.
PLAN_FORMAT_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad JSON shape, kind, field, or dup)."""


#: One executed fault action: (sim time, spec key, action, target names).
FaultRecord = Tuple[float, str, str, Tuple[str, ...]]


class FaultController:
    """The per-run fault machinery shared by every installed plan.

    Exactly one controller exists per simulation (``sim.fault_controller``);
    installing a second plan extends it.  All state that tests compare —
    the executed fault stream, the injected/fired counters — lives here.
    """

    #: Actions that undo an earlier injection rather than cause harm —
    #: counted separately as ``faults_restored_total``.
    RESTORE_ACTIONS = frozenset({"restore", "flap-up", "custodian-return"})

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        #: Spec key -> spec, across every installed plan.
        self.specs: Dict[str, FaultSpec] = {}
        #: Names of installed plans, in install order (diagnostics only).
        self.plan_names: List[str] = []
        #: Ordered record of every fault action that fired.
        self.events: List[FaultRecord] = []
        #: Half-open maintenance no-show windows, as (start, end).
        self.no_show_windows: List[Tuple[float, float]] = []

    # -- plumbing used by specs ----------------------------------------
    def schedule(
        self,
        spec: FaultSpec,
        when: float,
        callback: Callable[[], None],
        prefix: str = "fault",
    ) -> None:
        """Schedule one engine event for ``spec`` (clamped to now)."""
        self.sim.metrics.counter("faults_injected_total", spec=spec.key()).value += 1
        self.sim.call_at(
            max(when, self.sim.now), callback, label=f"{prefix}:{spec.key()}"
        )

    def stream_for(self, spec: FaultSpec):
        """The spec's private RNG stream, named by its content key."""
        return self.sim.rng(f"faults:{spec.key()}")

    def note(self, spec: FaultSpec, action: str, targets: List[str]) -> None:
        """Append one record to the executed fault stream.

        Also bumps the per-spec fired counter (and, for restore-family
        actions, the restored counter) in the run's metrics registry —
        fault scheduling is cold path, so the registry lookup per action
        is fine here, unlike the per-event hot path.
        """
        key = spec.key()
        self.events.append((self.sim.now, key, action, tuple(targets)))
        metrics = self.sim.metrics
        metrics.counter("faults_fired_total", spec=key).value += 1
        if action in self.RESTORE_ACTIONS:
            metrics.counter("faults_restored_total", spec=key).value += 1

    # -- maintenance no-show windows -----------------------------------
    def add_no_show_window(self, start: float, end: float) -> None:
        if end <= start:
            raise FaultPlanError(
                f"no-show window must have end > start, got [{start}, {end})"
            )
        self.no_show_windows.append((start, end))

    def maintenance_suppressed(self, now: float) -> bool:
        """True if a repair visit attempted at ``now`` finds nobody home."""
        return any(start <= now < end for start, end in self.no_show_windows)

    def suppression_ends(self, now: float) -> float:
        """When the currently-open no-show window(s) close.

        Only meaningful while :meth:`maintenance_suppressed` is True;
        returns ``now`` otherwise so a caller retrying at the returned
        time can never schedule into the past.
        """
        active = [end for start, end in self.no_show_windows if start <= now < end]
        return max(active) if active else now

    # -- reporting ------------------------------------------------------
    @property
    def injected(self) -> int:
        """Engine events scheduled on behalf of specs (registry-backed)."""
        return int(self.sim.metrics.total("faults_injected_total"))

    @property
    def fired(self) -> int:
        """Fault actions that actually executed.

        Reads the registry total, which equals ``len(self.events)`` by
        construction — :meth:`note` writes both in lockstep.
        """
        return int(self.sim.metrics.total("faults_fired_total"))

    def stream_tuple(self) -> Tuple[FaultRecord, ...]:
        """The executed fault stream as an immutable, picklable tuple."""
        return tuple(self.events)

    def summary(self) -> dict:
        """Counters for run summaries and the CLI."""
        return {
            "plans": list(self.plan_names),
            "specs": len(self.specs),
            "injected": self.injected,
            "fired": self.fired,
        }

    # -- installation ---------------------------------------------------
    def install(self, plan: "FaultPlan") -> None:
        for spec in plan.specs:
            key = spec.key()
            if key in self.specs:
                raise FaultPlanError(
                    f"duplicate fault spec {key!r}: already installed "
                    f"(identical specs would share one RNG stream)"
                )
            self.specs[key] = spec
            spec.schedule(self.sim, self)
        self.plan_names.append(plan.name)


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable bundle of fault specs.

    Plans are picklable (they cross process boundaries inside
    :class:`~repro.runtime.runner.ScenarioTask`) and composable:
    ``plan_a + plan_b`` concatenates the spec tuples, and installing two
    plans separately is equivalent to installing their sum — spec RNG
    streams are content-named, so order cannot matter.
    """

    name: str = "faults"
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            key = spec.key()
            if key in seen:
                raise FaultPlanError(f"duplicate fault spec in plan: {key!r}")
            seen.add(key)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(
            name=f"{self.name}+{other.name}", specs=self.specs + other.specs
        )

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def delivery_gating(self) -> bool:
        """True if *every* spec only gates delivery (never shifts a draw
        in a shared RNG stream) — the precondition for the exact
        per-seed uptime-monotonicity property."""
        return all(spec.delivery_gating for spec in self.specs)

    def install(self, sim: "Simulation") -> FaultController:
        """Compile this plan into scheduled events on ``sim``."""
        controller = sim.fault_controller
        if controller is None:
            controller = FaultController(sim)
            sim.fault_controller = controller
        controller.install(self)
        return controller

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": PLAN_FORMAT_VERSION,
            "name": self.name,
            "faults": [_CODECS[type(spec)].encode(spec) for spec in self.specs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"plan must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version")
        if isinstance(version, bool) or version != PLAN_FORMAT_VERSION:
            raise FaultPlanError(
                f"unsupported plan version {version!r} "
                f"(this build reads version {PLAN_FORMAT_VERSION})"
            )
        unknown = payload.keys() - {"version", "name", "faults"}
        if unknown:
            raise FaultPlanError(f"unknown plan field(s) {sorted(unknown)}")
        name = payload.get("name", "faults")
        if not isinstance(name, str):
            raise FaultPlanError(f"field 'name' must be a string, got {_describe(name)}")
        raw_faults = payload.get("faults")
        if not isinstance(raw_faults, list):
            raise FaultPlanError("plan needs a 'faults' array")
        specs = []
        for index, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise FaultPlanError(f"fault #{index} must be an object")
            kind = raw.get("kind")
            spec_cls = SPEC_KINDS.get(kind) if isinstance(kind, str) else None
            if spec_cls is None:
                raise FaultPlanError(
                    f"fault #{index}: unknown kind {kind!r} "
                    f"(options: {sorted(SPEC_KINDS)})"
                )
            try:
                specs.append(_CODECS[spec_cls].decode(raw))
            except ValueError as exc:
                raise FaultPlanError(f"fault #{index} ({kind}): {exc}") from exc
        return cls(name=name, specs=tuple(specs))


# -- the spec codec ---------------------------------------------------------
#: Accepted time-field suffixes in plan JSON, with seconds conversions.
_TIME_SUFFIXES = (
    ("_s", 1.0), ("_hours", 3600.0), ("_days", 86400.0), ("_years", 365.25 * 86400.0)
)


class _Expected(Exception):
    """A decoder's refusal; its args: what a value must be, what it was."""


def _describe(value: object) -> str:
    return repr(value) if isinstance(value, float) else type(value).__name__


def _number(value: object) -> float:
    # bool is an int subclass; json.loads reads NaN, Infinity and
    # integers past the float range (the comparison is exact).
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise _Expected("a finite number")


def _exactly(value: object, kind: type, expected: str) -> object:
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise _Expected(expected)


def _strings(items: object, container: type, noun: str):
    if not isinstance(items, container):
        raise _Expected(f"{noun} of strings")
    for item in items.values() if container is dict else items:
        if not isinstance(item, str):
            raise _Expected(f"{noun} of strings", f"{noun} holding {_describe(item)}")
    return tuple(sorted(items.items())) if container is dict else tuple(items)


#: Field annotation -> its JSON (decode, encode); None writes as is.
_SHAPES = {
    "float": (_number, None),
    "int": (lambda value: _exactly(value, int, "an integer"), None),
    "str": (lambda value: _exactly(value, str, "a string"), None),
    "Tuple[str, ...]": (lambda value: _strings(value, list, "a list"), list),
    "Tuple[Tuple[str, str], ...]": (
        lambda value: _strings(value, dict, "an object"), dict
    ),
    "Selector": (
        lambda value: _CODECS[Selector].decode(value, "select."),
        lambda selector: _CODECS[Selector].encode(selector),
    ),
}


class _Codec:
    """One dataclass's JSON shape, read from its fields: each JSON type
    from the annotation (``Optional`` also reads ``null``), time and
    left-out-at-default from the metadata, required from no default."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.kind = getattr(cls, "KIND", None)  # a spec's JSON "kind"
        #: Writing: (name, key, encode, omit_default, default) per field.
        self.fields: List[tuple] = []
        #: Reading: JSON key -> (name, decode, seconds factor, nullable).
        self.keys: Dict[str, tuple] = {}
        #: Reading: required field -> the error for leaving it out.
        self.missing: Dict[str, str] = {}
        for f in dataclasses.fields(cls):
            nullable = f.type.startswith("Optional[")
            decode, encode = _SHAPES[f.type[len("Optional["):-1] if nullable else f.type]
            spellings = [(f.name, None)]
            if f.default is f.default_factory is dataclasses.MISSING:
                self.missing[f.name] = f"missing field {f.name!r}"
            if f.metadata.get("time"):
                spellings = [(f.name + sfx, factor) for sfx, factor in _TIME_SUFFIXES]
                options = ", ".join(key for key, _ in spellings)
                self.missing[f.name] = f"fault needs exactly one of {options}"
            for key, factor in spellings:
                self.keys[key] = (f.name, decode, factor, nullable)
            self.fields.append((f.name, spellings[0][0], encode,
                                f.metadata.get("omit_default"), f.default))

    def encode(self, obj: object) -> dict:
        payload = {"kind": self.kind} if self.kind else {}
        for name, key, encode, omit_default, default in self.fields:
            value = getattr(obj, name)
            if not (omit_default and value == default):
                payload[key] = value if encode is None else encode(value)
        return payload

    def decode(self, payload: dict, path: str = ""):
        """Build the class from ``payload``; ``path`` prefixes field names
        in errors."""
        if not isinstance(payload, dict):
            raise _Expected("an object")
        kwargs, unknown, keys = {}, [], self.keys
        for key, value in payload.items():
            wire = keys.get(key)
            if wire is None:
                if key != "kind" or not self.kind:
                    unknown.append(path + key)
                continue
            name, decode, factor, nullable = wire
            if name in kwargs:  # a time field spelled twice
                raise FaultPlanError(f"{self.missing[name]} (got {sorted(payload)})")
            try:
                value = None if value is None and nullable else decode(value)
            except _Expected as exc:
                got = exc.args[1] if len(exc.args) > 1 else _describe(value)
                raise FaultPlanError(
                    f"field {path + key!r} must be {exc.args[0]}, got {got}"
                ) from None
            kwargs[name] = value if factor is None else value * factor
        for name in self.missing:
            if name not in kwargs:
                raise FaultPlanError(f"{self.missing[name]} (got {sorted(payload)})")
        if unknown:
            raise FaultPlanError(f"unknown field(s) {sorted(unknown)}")
        try:
            return self.cls(**kwargs)
        except ValueError as exc:
            raise FaultPlanError(f"field {path[:-1]!r}: {exc}" if path else str(exc))


#: Every JSON-coded class -> its codec.
_CODECS = {cls: _Codec(cls) for cls in (Selector, *SPEC_KINDS.values())}


def load_plan(path: str) -> FaultPlan:
    """Read a version-1 JSON fault plan from ``path``.

    Raises :class:`FaultPlanError` on malformed content (including
    invalid JSON), with enough context to find the offending fault.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: invalid JSON: {exc}") from exc
    return FaultPlan.from_dict(payload)


def fault_stream_to_json(stream: Iterable[FaultRecord]) -> list:
    """Project an executed fault stream into JSON-ready lists.

    Shard artifacts carry each run's fault stream across process and
    host boundaries; ``json`` round-trips floats via shortest-repr, so
    the reconstructed stream is bit-identical to the executed one.
    """
    return [
        [time_s, key, action, list(targets)]
        for time_s, key, action, targets in stream
    ]


def fault_stream_from_json(payload: Iterable) -> Tuple[FaultRecord, ...]:
    """Rebuild an executed fault stream from its JSON projection."""
    return tuple(
        (
            float(time_s),
            str(key),
            str(action),
            tuple(str(name) for name in targets),
        )
        for time_s, key, action, targets in payload
    )
