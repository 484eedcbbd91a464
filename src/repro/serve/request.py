"""Canonical scenario-service requests and their content digests.

The whole serving layer rests on one fact: a scenario run is a pure
function of its request.  ``(scenario, seed(s), horizon, cadence,
overrides, fault plan, audit flag)`` fully determine the simulation, so
two requests with the same *content* must produce the same response
bytes — and the cache can key on content alone.

:class:`ServeRequest` is that content, normalized: JSON payloads are
validated field by field, numerics are coerced to their declared types
(``2``, ``2.0``, and ``2.00e0`` for a float field all normalize to the
same value), override keys are sorted, and the fault plan is parsed
through the version-checked :class:`~repro.faults.FaultPlan` loader.
The canonical form is a *fixed point*: parsing the serialization of a
request yields the identical request (the property suite asserts this),
which is what makes the digest stable under JSON key reordering and
float formatting.

The digest itself reuses :func:`repro.runtime.shard.task_fingerprint` —
the same machinery that decides whether two shard artifacts came from
the same study decides whether two HTTP requests are the same
computation.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core import units
from ..faults import FaultPlan, FaultPlanError
from ..runtime.runner import ScenarioTask
from ..runtime.shard import task_fingerprint

#: The request format version; bumped with any canonical-form change.
REQUEST_FORMAT_VERSION = 1

#: Per-endpoint defaults: the one table, which the ``run`` / ``mc`` CLI
#: also reads its argparse defaults from.
RUN_DEFAULTS = {"seed": 2021, "years": 10.0, "report_days": 1.0}
MC_DEFAULTS = {
    "runs": 10,
    "base_seed": 100,
    "years": 25.0,
    "report_days": 2.0,
}

#: Work ceilings: a public endpoint must bound the work one request can
#: demand.  They are serving policy only; the CLI parses with
#: ``max_years``/``max_runs`` of ``math.inf``.
MAX_YEARS = 100.0
MAX_RUNS = 10_000


class RequestError(ValueError):
    """A malformed or out-of-bounds service request (HTTP 400)."""


def _require_type(name: str, value: object, kind: type, type_name: str):
    # bool is an int subclass; an explicit true/false for a numeric
    # field is always a mistake, never a coercion.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise RequestError(
            f"field {name!r} must be {type_name}, "
            f"got {type(value).__name__}"
        )
    return value


def _as_int(name: str, value: object) -> int:
    return int(_require_type(name, value, int, "an integer"))


def _as_float(name: str, value: object) -> float:
    # JSON spells 2, 2.0, and 2.00e0 differently but a float field
    # means the same number; normalizing here is what makes the cache
    # key stable under float formatting.
    return float(_require_type(name, value, (int, float), "a number"))


def _as_bool(name: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise RequestError(
            f"field {name!r} must be a boolean, got {type(value).__name__}"
        )
    return value


def _normalize_override(field: dataclasses.Field, value: object) -> object:
    """Coerce one override value to its config field's declared shape."""
    default = field.default
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise RequestError(
                f"override {field.name!r} must be a boolean, "
                f"got {type(value).__name__}"
            )
        return value
    if isinstance(default, float):
        number = _as_float(f"overrides.{field.name}", value)
        # json.loads accepts NaN and Infinity; no config field means
        # either, and a NaN would otherwise surface mid-run.
        if not math.isfinite(number):
            raise RequestError(
                f"override {field.name!r} must be a finite number, "
                f"got {number!r}"
            )
        return number
    if isinstance(default, int):
        return _as_int(f"overrides.{field.name}", value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise RequestError(
                f"override {field.name!r} must be a string, "
                f"got {type(value).__name__}"
            )
        return value
    raise RequestError(
        f"override {field.name!r} is not a servable config field "
        f"(only bool/int/float/str fields accept overrides)"
    )


def _config_fields() -> Dict[str, dataclasses.Field]:
    from ..experiment.fifty_year import FiftyYearConfig

    return {f.name: f for f in dataclasses.fields(FiftyYearConfig)}


#: Config fields a request may never override: identity and cadence are
#: first-class request fields, and letting an override alias them would
#: give one computation two distinct canonical forms (two cache keys).
RESERVED_OVERRIDES = frozenset({"seed", "horizon", "report_interval"})


@dataclass(frozen=True)
class ServeRequest:
    """One validated, canonical scenario-service request.

    Frozen and picklable: the same object travels from the HTTP parser
    through the single-flight table into a pool worker.  Field order is
    part of the canonical form; ``overrides`` is a sorted tuple of
    ``(field, value)`` pairs (the ScenarioTask representation).
    """

    endpoint: str  # "run" | "mc"
    scenario: str
    years: float
    report_days: float
    seed: int = 0            # run endpoint only
    runs: int = 0            # mc endpoint only
    base_seed: int = 0       # mc endpoint only
    overrides: Tuple[Tuple[str, object], ...] = ()
    faults: Optional[FaultPlan] = None
    audit: bool = False

    def to_task(self) -> ScenarioTask:
        """The existing Monte-Carlo task this request executes as."""
        return ScenarioTask(
            scenario=self.scenario,
            horizon=units.years(self.years),
            report_interval=units.days(self.report_days),
            overrides=self.overrides,
            faults=self.faults,
            audit=self.audit,
        )

    def digest(self) -> str:
        """The content digest (``sha256:…``) that keys the cache.

        Reuses the shard-artifact fingerprint machinery: the dataclass
        fields — endpoint, scenario, seeds, normalized numerics, sorted
        overrides, the fault plan's ``to_dict`` — are projected to
        canonical JSON and hashed.  Equal content ⇒ equal digest, no
        matter how the wire JSON spelled it.
        """
        return task_fingerprint(self)

    def cache_key(self) -> str:
        """The bare hex digest used as the cache/file key."""
        return self.digest().split(":", 1)[1]

    def to_payload(self) -> dict:
        """The canonical JSON payload (parse ∘ serialize is identity)."""
        payload: dict = {
            "version": REQUEST_FORMAT_VERSION,
            "scenario": self.scenario,
            "years": self.years,
            "report_days": self.report_days,
            "overrides": {name: value for name, value in self.overrides},
            "faults": None if self.faults is None else self.faults.to_dict(),
            "audit": self.audit,
        }
        if self.endpoint == "run":
            payload["seed"] = self.seed
        else:
            payload["runs"] = self.runs
            payload["base_seed"] = self.base_seed
        return payload

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )


def parse_request(
    payload: object,
    endpoint: str,
    max_years: float = MAX_YEARS,
    max_runs: int = MAX_RUNS,
) -> ServeRequest:
    """Validate a decoded JSON body into a :class:`ServeRequest`.

    Raises :class:`RequestError` (→ HTTP 400, CLI exit 2) with a
    field-level message on anything malformed: unknown fields, wrong
    types, out-of-range values, unknown scenarios, bad fault plans,
    reserved overrides, and overrides the scenario's config rejects.
    This is the one validator of a scenario request: ``repro run``/``mc``
    build a payload from their flags and parse it here too.
    """
    if endpoint not in ("run", "mc"):
        raise RequestError(f"unknown endpoint {endpoint!r}")
    if not isinstance(payload, dict):
        raise RequestError(
            f"request body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    defaults = RUN_DEFAULTS if endpoint == "run" else MC_DEFAULTS
    known = {"version", "scenario", "years", "report_days", "overrides",
             "faults", "audit", *defaults}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestError(
            f"unknown field(s) {unknown} for /v1/{endpoint} "
            f"(accepted: {sorted(known)})"
        )

    version = payload.get("version", REQUEST_FORMAT_VERSION)
    if version != REQUEST_FORMAT_VERSION:
        raise RequestError(
            f"unsupported request version {version!r} "
            f"(this build serves version {REQUEST_FORMAT_VERSION})"
        )

    from ..experiment.scenarios import SCENARIOS, scenario_config

    scenario = payload.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise RequestError(
            f"unknown scenario {scenario!r}; options: {sorted(SCENARIOS)}"
        )

    # Validity first, then the ceiling: an input invalid everywhere gets
    # one message on every surface, and only the ceiling (a serving
    # policy the CLI lifts) names the limit.
    years = _as_float("years", payload.get("years", defaults["years"]))
    if not 0.0 < years < math.inf:
        raise RequestError(f"years must be in (0, inf), got {years!r}")
    if years > max_years:
        raise RequestError(
            f"years must be in (0, {max_years:g}], got {years!r}"
        )
    report_days = _as_float(
        "report_days", payload.get("report_days", defaults["report_days"])
    )
    if not 0.0 < units.days(report_days) <= units.years(years):
        raise RequestError(
            f"report_days must be in (0, horizon], got {report_days!r}"
        )

    raw_overrides = payload.get("overrides", {})
    if not isinstance(raw_overrides, dict):
        raise RequestError("overrides must be a JSON object of field: value")
    fields = _config_fields()
    pairs = []
    for name in sorted(raw_overrides):
        if name in RESERVED_OVERRIDES:
            raise RequestError(
                f"override {name!r} is reserved; use the request's "
                f"first-class fields instead"
            )
        field = fields.get(name)
        if field is None:
            raise RequestError(
                f"unknown override field {name!r} "
                f"(not a FiftyYearConfig field)"
            )
        pairs.append((name, _normalize_override(field, raw_overrides[name])))
    # The config's own invariants (payload fits the PSDU, probabilities,
    # counts) reject here, before a pool execution is spent on them.
    # Without overrides the config is a registered scenario with the
    # positive horizon and cadence checked above, so it cannot fail and
    # the cache-hit path skips building it.
    if pairs:
        try:
            scenario_config(
                scenario,
                horizon=units.years(years),
                report_interval=units.days(report_days),
                overrides=pairs,
            )
        except ValueError as exc:
            raise RequestError(str(exc)) from exc

    raw_faults = payload.get("faults")
    plan: Optional[FaultPlan] = None
    if raw_faults is not None:
        try:
            plan = FaultPlan.from_dict(raw_faults)
        except FaultPlanError as exc:
            raise RequestError(f"bad fault plan: {exc}") from exc

    audit = _as_bool("audit", payload.get("audit", False))

    if endpoint == "run":
        seed = _as_int("seed", payload.get("seed", defaults["seed"]))
        return ServeRequest(
            endpoint="run",
            scenario=scenario,
            years=years,
            report_days=report_days,
            seed=seed,
            overrides=tuple(pairs),
            faults=plan,
            audit=audit,
        )
    runs = _as_int("runs", payload.get("runs", defaults["runs"]))
    if runs < 1:
        raise RequestError(f"runs must be in [1, inf), got {runs}")
    if runs > max_runs:
        raise RequestError(f"runs must be in [1, {max_runs}], got {runs}")
    base_seed = _as_int(
        "base_seed", payload.get("base_seed", defaults["base_seed"])
    )
    return ServeRequest(
        endpoint="mc",
        scenario=scenario,
        years=years,
        report_days=report_days,
        runs=runs,
        base_seed=base_seed,
        overrides=tuple(pairs),
        faults=plan,
        audit=audit,
    )


def parse_request_json(body: bytes, endpoint: str, **limits) -> ServeRequest:
    """Decode raw body bytes and validate (→ HTTP 400 on any failure)."""
    try:
        payload = json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise RequestError(f"invalid JSON body: {exc}") from None
    return parse_request(payload, endpoint, **limits)


__all__ = [
    "MAX_RUNS",
    "MAX_YEARS",
    "MC_DEFAULTS",
    "REQUEST_FORMAT_VERSION",
    "RUN_DEFAULTS",
    "RequestError",
    "ServeRequest",
    "parse_request",
    "parse_request_json",
]
