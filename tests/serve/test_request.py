"""Validation unit tests for the canonical request model."""

from __future__ import annotations

import pytest

from repro.core import units
from repro.faults.plans import pinned_chaos_plan
from repro.serve import RequestError, parse_request, parse_request_json
from repro.serve.request import MC_DEFAULTS, RUN_DEFAULTS


def test_run_defaults_mirror_cli():
    request = parse_request({"scenario": "owned-only"}, "run")
    assert request.endpoint == "run"
    assert request.seed == RUN_DEFAULTS["seed"] == 2021
    assert request.years == RUN_DEFAULTS["years"] == 10.0
    assert request.report_days == RUN_DEFAULTS["report_days"] == 1.0
    assert request.runs == 0 and request.base_seed == 0
    assert request.faults is None and request.audit is False


def test_mc_defaults_mirror_cli():
    request = parse_request({"scenario": "as-designed"}, "mc")
    assert request.endpoint == "mc"
    assert request.runs == MC_DEFAULTS["runs"] == 10
    assert request.base_seed == MC_DEFAULTS["base_seed"] == 100
    assert request.years == 25.0 and request.report_days == 2.0


def test_to_task_carries_everything():
    plan = pinned_chaos_plan()
    request = parse_request(
        {
            "scenario": "as-designed",
            "seed": 7,
            "years": 2.0,
            "report_days": 3.0,
            "overrides": {"payload_bytes": 48},
            "faults": plan.to_dict(),
            "audit": True,
        },
        "run",
    )
    task = request.to_task()
    assert task.scenario == "as-designed"
    assert task.horizon == units.years(2.0)
    assert task.report_interval == units.days(3.0)
    assert task.overrides == (("payload_bytes", 48),)
    assert task.faults == plan
    assert task.audit is True


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not a dict", "JSON object"),
        ({"scenario": "no-such"}, "unknown scenario"),
        ({"scenario": "owned-only", "bogus": 1}, "unknown field"),
        ({"scenario": "owned-only", "years": "ten"}, "must be a number"),
        ({"scenario": "owned-only", "years": True}, "must be a number"),
        ({"scenario": "owned-only", "years": -1.0}, "years must be in"),
        ({"scenario": "owned-only", "years": 1e9}, "years must be in"),
        ({"scenario": "owned-only", "seed": 1.5}, "must be an integer"),
        ({"scenario": "owned-only", "audit": 1}, "must be a boolean"),
        ({"scenario": "owned-only", "report_days": 0}, "report_days"),
        ({"scenario": "owned-only", "overrides": []}, "overrides must be"),
        (
            {"scenario": "owned-only", "overrides": {"seed": 3}},
            "reserved",
        ),
        (
            {"scenario": "owned-only", "overrides": {"horizon": 3.0}},
            "reserved",
        ),
        (
            {"scenario": "owned-only", "overrides": {"no_field": 3}},
            "unknown override",
        ),
        (
            {"scenario": "owned-only", "overrides": {"payload_bytes": 1.5}},
            "must be an integer",
        ),
        (
            {"scenario": "owned-only", "overrides": {"maintain_gateways": 1}},
            "must be a boolean",
        ),
        (
            {"scenario": "owned-only", "overrides": {"addition_harvesters": 1}},
            "not a servable config field",
        ),
        ({"scenario": "owned-only", "faults": {"oops": 1}}, "bad fault plan"),
        ({"scenario": "owned-only", "version": 99}, "unsupported request"),
    ],
)
def test_run_request_rejections(payload, fragment):
    with pytest.raises(RequestError, match=fragment):
        parse_request(payload, "run")


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"scenario": "owned-only", "runs": 0}, "runs must be in"),
        ({"scenario": "owned-only", "runs": 10**7}, "runs must be in"),
        ({"scenario": "owned-only", "seed": 1}, "unknown field"),
        ({"scenario": "owned-only", "base_seed": 2.5}, "must be an integer"),
    ],
)
def test_mc_request_rejections(payload, fragment):
    with pytest.raises(RequestError, match=fragment):
        parse_request(payload, "mc")


def test_run_rejects_mc_fields():
    with pytest.raises(RequestError, match="unknown field"):
        parse_request({"scenario": "owned-only", "runs": 4}, "run")


def test_parse_request_json_rejects_bad_bytes():
    with pytest.raises(RequestError, match="invalid JSON"):
        parse_request_json(b"{nope", "run")
    # An empty body is the all-defaults request for neither endpoint:
    # scenario is required.
    with pytest.raises(RequestError, match="unknown scenario"):
        parse_request_json(b"", "run")


def test_unknown_endpoint_rejected():
    with pytest.raises(RequestError, match="unknown endpoint"):
        parse_request({"scenario": "owned-only"}, "batch")


def test_int_float_coercion_normalizes():
    a = parse_request({"scenario": "owned-only", "years": 2}, "run")
    b = parse_request({"scenario": "owned-only", "years": 2.0}, "run")
    assert a == b
    assert a.digest() == b.digest()
    assert isinstance(a.years, float)


@pytest.mark.parametrize(
    "body, field",
    [
        # json.loads reads these literals as float nan/inf.
        (b'{"hotspot_median_tenure_years": NaN}', "hotspot_median_tenure_years"),
        (b'{"storage_j": NaN}', "storage_j"),
        (b'{"extent_m": Infinity}', "extent_m"),
        (b'{"extent_m": -Infinity}', "extent_m"),
        (b'{"gateway_replace_delay": NaN}', "gateway_replace_delay"),
    ],
)
@pytest.mark.parametrize("endpoint", ["run", "mc"])
def test_non_finite_overrides_rejected(body, field, endpoint):
    wire = b'{"scenario": "owned-only", "overrides": ' + body + b"}"
    with pytest.raises(RequestError) as refused:
        parse_request_json(wire, endpoint)
    assert str(refused.value).startswith(
        f"override {field!r} must be a finite number, got "
    )


def test_override_coercion_against_config_types():
    request = parse_request(
        {
            "scenario": "owned-only",
            "overrides": {
                "storage_j": 5,            # int for a float field
                "payload_bytes": 32,       # int field stays int
                "maintain_gateways": False,
                "harvester": "solar",
            },
        },
        "run",
    )
    overrides = dict(request.overrides)
    assert overrides["storage_j"] == 5.0
    assert isinstance(overrides["storage_j"], float)
    assert overrides["payload_bytes"] == 32
    assert overrides["maintain_gateways"] is False
    assert overrides["harvester"] == "solar"
