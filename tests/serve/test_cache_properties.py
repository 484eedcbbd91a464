"""Property tests for the canonical request form and the perfect cache.

Three properties carry the serving layer:

1. parse ∘ serialize is a fixed point — the canonical form is stable,
   so a request can be archived, replayed, and re-keyed forever.
2. The content digest ignores JSON spelling — key order, float
   formatting (``2`` vs ``2.0``), and override insertion order cannot
   split one computation across two cache keys.
3. A cache hit is byte-identical to the miss that populated it and to
   a fresh computation — the "perfect cache" claim, sampled across
   random (scenario, seed, overrides) draws.

A fourth guards the boundary: any JSON value as a request's fault plan
parses or is a ``RequestError`` (a 400), never another exception.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_async
from repro.experiment.scenarios import SCENARIOS
from repro.faults.plans import pinned_chaos_plan
from repro.faults.spec import SPEC_KINDS
from repro.radio.ieee802154 import MAX_PAYLOAD_BYTES
from repro.serve import (
    ResponseCache,
    ScenarioService,
    compute_response,
    parse_request,
    parse_request_json,
)
from repro.serve.request import RequestError

SCENARIO_NAMES = sorted(SCENARIOS)

OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "payload_bytes": st.integers(min_value=1, max_value=MAX_PAYLOAD_BYTES),
        "storage_j": st.floats(min_value=0.5, max_value=10.0),
        "maintain_gateways": st.booleans(),
        "harvester": st.sampled_from(["cathodic", "solar", "vibration"]),
    },
)


def run_payloads():
    return st.fixed_dictionaries(
        {"scenario": st.sampled_from(SCENARIO_NAMES)},
        optional={
            "seed": st.integers(min_value=0, max_value=2**31 - 1),
            "years": st.floats(min_value=0.1, max_value=100.0),
            "report_days": st.floats(min_value=0.05, max_value=30.0),
            "overrides": OVERRIDES,
            "audit": st.booleans(),
            "faults": st.sampled_from([None, pinned_chaos_plan().to_dict()]),
        },
    )


@settings(deadline=None, max_examples=60)
@given(payload=run_payloads())
def test_parse_serialize_is_fixed_point(payload):
    request = parse_request(payload, "run")
    canonical = request.to_json()
    reparsed = parse_request(json.loads(canonical), "run")
    assert reparsed == request
    assert reparsed.to_json() == canonical
    assert reparsed.digest() == request.digest()


@settings(deadline=None, max_examples=60)
@given(
    payload=run_payloads(),
    runs=st.integers(min_value=1, max_value=20),
    base_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mc_parse_serialize_is_fixed_point(payload, runs, base_seed):
    payload = dict(payload)
    payload.pop("seed", None)
    payload["runs"] = runs
    payload["base_seed"] = base_seed
    request = parse_request(payload, "mc")
    reparsed = parse_request(json.loads(request.to_json()), "mc")
    assert reparsed == request
    assert reparsed.digest() == request.digest()


@settings(deadline=None, max_examples=60)
@given(payload=run_payloads())
def test_digest_ignores_json_spelling(payload):
    baseline = parse_request(payload, "run").digest()

    # Key order: reversed insertion order, at both nesting levels.
    reordered = {key: payload[key] for key in reversed(list(payload))}
    if isinstance(reordered.get("overrides"), dict):
        reordered["overrides"] = {
            key: value
            for key, value in reversed(list(reordered["overrides"].items()))
        }
    assert parse_request(reordered, "run").digest() == baseline

    # Float formatting: integral floats spelled as JSON integers.
    respelled = dict(payload)
    for name in ("years", "report_days"):
        value = respelled.get(name)
        if isinstance(value, float) and value.is_integer():
            respelled[name] = int(value)
    if isinstance(respelled.get("overrides"), dict):
        overrides = dict(respelled["overrides"])
        value = overrides.get("storage_j")
        if isinstance(value, float) and value.is_integer():
            overrides["storage_j"] = int(value)
        respelled["overrides"] = overrides
    assert parse_request(respelled, "run").digest() == baseline

    # Wire-level spelling: pretty-printed vs compact JSON.
    for text in (
        json.dumps(payload, indent=2),
        json.dumps(payload, sort_keys=True, separators=(",", ":")),
    ):
        parsed = parse_request_json(text.encode("utf-8"), "run")
        assert parsed.digest() == baseline


def test_integral_float_spellings_share_one_digest():
    # The deterministic core of the property above, kept example-free so
    # a hypothesis regression cannot hide it.
    spellings = [b'{"scenario":"owned-only","years":2}',
                 b'{"scenario":"owned-only","years":2.0}',
                 b'{"scenario":"owned-only","years":2.00e0}',
                 b'{"years":2.0,"scenario":"owned-only"}']
    digests = {
        parse_request_json(body, "run").digest() for body in spellings
    }
    assert len(digests) == 1


WORDS = st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=8,
)


def _or_junk(strategy):
    return strategy | JSON_VALUES


NUMBERS = st.integers(-2, 10) | st.floats()
SELECTOR_PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "by": _or_junk(st.sampled_from(["name", "tier", "k-random",
                                        "blast-radius"])),
        "tier": _or_junk(st.sampled_from(["gateway", "cloud"])),
        "names": _or_junk(st.lists(WORDS, max_size=2)),
        "k": _or_junk(NUMBERS),
        "where": _or_junk(st.dictionaries(WORDS, WORDS, max_size=2)),
    },
)
FAULT_PAYLOADS = st.fixed_dictionaries(
    {"kind": _or_junk(st.sampled_from(sorted(SPEC_KINDS)))},
    optional={
        **{
            field + suffix: _or_junk(NUMBERS)
            for field in ("at", "duration", "down", "up")
            for suffix in ("", "_s", "_days")
        },
        "select": _or_junk(SELECTOR_PAYLOADS),
        **{name: _or_junk(NUMBERS)
           for name in ("k", "cycles", "credits", "fraction")},
        "mode": _or_junk(st.sampled_from(["fail", "retire"])),
        "reason": _or_junk(WORDS),
        "resource": _or_junk(WORDS),
    },
)
PLAN_PAYLOADS = _or_junk(st.fixed_dictionaries(
    {"version": _or_junk(st.just(1)),
     "faults": _or_junk(st.lists(FAULT_PAYLOADS, max_size=3))},
    optional={"name": _or_junk(WORDS)},
))


@settings(deadline=None, max_examples=300)
@given(faults=PLAN_PAYLOADS)
def test_any_json_fault_plan_parses_or_is_a_request_error(faults):
    """No pool is involved: this is the parse a 400 is decided by."""
    try:
        request = parse_request({"scenario": "owned-only", "faults": faults},
                                "run")
    except RequestError:
        return
    reparsed = parse_request(json.loads(request.to_json()), "run")
    assert reparsed == request


@settings(deadline=None, max_examples=5)
@given(
    scenario=st.sampled_from(["owned-only", "as-designed", "helium-only"]),
    seed=st.integers(min_value=0, max_value=10_000),
    overrides=OVERRIDES,
)
def test_hit_bytes_equal_miss_bytes(scenario, seed, overrides):
    """A cache hit is provably byte-identical to a cold run."""
    request = parse_request(
        {
            "scenario": scenario,
            "seed": seed,
            "years": 0.1,
            "report_days": 5.0,
            "overrides": overrides,
        },
        "run",
    )

    async def scenario_roundtrip():
        service = ScenarioService(
            workers=1,
            cache=ResponseCache(),
            executor=ThreadPoolExecutor(max_workers=1),
        )
        try:
            miss = await service.handle(request)
            hit = await service.handle(request)
        finally:
            service.close()
        return miss, hit

    miss, hit = run_async(scenario_roundtrip())
    assert miss.status == 200 and miss.cache == "miss"
    assert hit.status == 200 and hit.cache == "hit"
    assert hit.body == miss.body
    assert hit.digest == miss.digest == request.digest()
    # ... and identical to a cold computation with no service at all.
    assert compute_response(request) == miss.body
