"""End-to-end tests: real HTTP server, real scenarios, exact bytes.

The acceptance contract of the serving layer is byte-identity with the
offline CLI: the body of a ``POST /v1/run`` response must equal, byte
for byte, the ``--metrics`` JSONL file that ``python -m repro run``
writes for the same parameters (and ``/v1/mc`` likewise for ``mc``).
A golden fixture under ``golden/`` pins the response for one faulted,
audited request so a silent drift in *either* path fails loudly.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor

from conftest import http_request, open_keepalive, run_async
from repro.cli import main as cli_main
from repro.faults.plans import pinned_chaos_plan
from repro.radio.ieee802154 import MAX_PAYLOAD_BYTES
from repro.serve import (
    HttpServer,
    ResponseCache,
    ScenarioService,
    compute_response,
    parse_request,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def make_service() -> ScenarioService:
    # Thread executor: identical compute path, no process-spawn latency.
    return ScenarioService(
        workers=2,
        cache=ResponseCache(),
        executor=ThreadPoolExecutor(max_workers=2),
    )


async def _serve(scenario_fn):
    """Start a real server on a free port, run the scenario, stop it."""
    service = make_service()
    server = HttpServer(service, port=0)
    await server.start()
    try:
        return await scenario_fn(server)
    finally:
        await server.stop()


def post_json(port: int, target: str, payload: dict, conn=None):
    body = json.dumps(payload).encode("utf-8")
    return http_request(port, "POST", target, body=body, reader_writer=conn)


def test_run_endpoint_byte_identical_to_cli(tmp_path):
    payload = {"scenario": "owned-only", "seed": 2021, "years": 1.0}

    async def scenario(server):
        conn = await open_keepalive(server.port)
        miss = await post_json(server.port, "/v1/run", payload, conn=conn)
        hit = await post_json(server.port, "/v1/run", payload, conn=conn)
        metrics = await http_request(server.port, "GET", "/metrics")
        conn[1].close()
        return miss, hit, metrics

    miss, hit, metrics = run_async(_serve(scenario))

    status, headers, body = miss
    assert status == 200
    assert headers["x-cache"] == "miss"
    assert headers["content-type"] == "application/json"
    hit_status, hit_headers, hit_body = hit
    assert hit_status == 200
    assert hit_headers["x-cache"] == "hit"
    assert hit_body == body  # the perfect-cache contract, over the wire
    assert hit_headers["x-request-digest"] == headers["x-request-digest"]
    assert headers["x-request-digest"].startswith("sha256:")

    # The served body is exactly the offline --metrics file.
    offline = tmp_path / "run.jsonl"
    rc = cli_main(
        ["run", "owned-only", "--seed", "2021", "--years", "1",
         "--metrics", str(offline)]
    )
    assert rc == 0
    assert offline.read_bytes() == body

    # The hit/miss ratio is visible at GET /metrics.
    text = metrics[2].decode("utf-8")
    assert "serve_cache_hits_total 1" in text
    assert "serve_cache_misses_total 1" in text
    assert 'serve_requests_total{endpoint="run",status="200"} 2' in text


def test_faulted_audited_run_matches_cli_and_golden(tmp_path):
    plan = pinned_chaos_plan()
    payload = {
        "scenario": "as-designed",
        "seed": 2021,
        "years": 2.0,
        "report_days": 2.0,
        "faults": plan.to_dict(),
        "audit": True,
    }

    async def scenario(server):
        return await post_json(server.port, "/v1/run", payload)

    status, headers, body = run_async(_serve(scenario))
    assert status == 200

    # Pinned golden fixture: catches drift in either the service or the
    # simulator without needing the CLI at all.
    with open(
        os.path.join(GOLDEN_DIR, "run_as-designed_chaos_seed2021.json")
    ) as handle:
        golden = json.load(handle)
    assert headers["x-request-digest"] == golden["digest"]
    assert len(body) == golden["body_bytes"]
    assert hashlib.sha256(body).hexdigest() == golden["body_sha256"]
    request = parse_request(golden["request"], "run")
    assert request.digest() == golden["digest"]

    # ... and the offline CLI, faults + audit included, writes the same
    # bytes.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    offline = tmp_path / "run.jsonl"
    rc = cli_main(
        ["run", "as-designed", "--seed", "2021", "--years", "2",
         "--report-days", "2", "--faults", str(plan_path), "--audit",
         "--metrics", str(offline)]
    )
    assert rc == 0
    assert offline.read_bytes() == body


def test_mc_endpoint_byte_identical_to_cli(tmp_path):
    payload = {
        "scenario": "owned-only",
        "runs": 3,
        "base_seed": 100,
        "years": 0.5,
        "report_days": 2.0,
    }

    async def scenario(server):
        miss = await post_json(server.port, "/v1/mc", payload)
        hit = await post_json(server.port, "/v1/mc", payload)
        return miss, hit

    miss, hit = run_async(_serve(scenario))
    assert miss[0] == hit[0] == 200
    assert miss[1]["x-cache"] == "miss" and hit[1]["x-cache"] == "hit"
    assert miss[2] == hit[2]

    # One line per run plus the merged line, failure count included.
    lines = miss[2].decode("utf-8").splitlines()
    assert len(lines) == 4
    merged = json.loads(lines[-1])
    assert merged["merged"] is True
    assert merged["runs"] == 3
    assert merged["failures"] == 0

    offline = tmp_path / "mc.jsonl"
    rc = cli_main(
        ["mc", "owned-only", "--runs", "3", "--base-seed", "100",
         "--years", "0.5", "--report-days", "2", "--workers", "2",
         "--metrics", str(offline)]
    )
    assert rc == 0
    assert offline.read_bytes() == miss[2]


def test_connection_close_ends_in_eof_after_the_pool_forks():
    """The first run forks the process pool while the client socket is
    open, so a worker holds a copy of it; the response must still end
    in EOF rather than wait on that copy."""
    body = json.dumps(
        {"scenario": "owned-only", "years": 0.1, "report_days": 5.0}
    ).encode("utf-8")
    head = (
        f"POST /v1/run HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")

    async def scenario():
        server = HttpServer(ScenarioService(workers=1), port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(head + body)
            await writer.drain()
            try:
                return await asyncio.wait_for(reader.read(), timeout=10.0)
            finally:
                writer.close()
        finally:
            await server.stop()

    response = run_async(scenario())
    assert response.startswith(b"HTTP/1.1 200 ")


def test_default_payloads_share_cli_defaults():
    # An empty overrides/faults request must hash identically to the
    # minimal spelling — otherwise clients split the cache.
    a = parse_request({"scenario": "owned-only"}, "run")
    b = parse_request(
        {"scenario": "owned-only", "overrides": {}, "faults": None,
         "audit": False, "seed": 2021, "years": 10.0, "report_days": 1.0},
        "run",
    )
    assert a == b and a.digest() == b.digest()


def test_http_surface(tmp_path):
    async def scenario(server):
        port = server.port
        results = {}
        results["healthz"] = await http_request(port, "GET", "/healthz")
        results["missing"] = await http_request(port, "GET", "/nope")
        results["method"] = await http_request(port, "GET", "/v1/run")
        results["bad_scenario"] = await post_json(
            port, "/v1/run", {"scenario": "atlantis"}
        )
        results["bad_json"] = await http_request(
            port, "POST", "/v1/run", body=b"{nope"
        )
        results["bad_field"] = await post_json(
            port, "/v1/mc", {"scenario": "owned-only", "seed": 1}
        )
        server.service._draining = True
        results["draining"] = await http_request(port, "GET", "/healthz")
        server.service._draining = False
        return results

    results = run_async(_serve(scenario))

    status, headers, body = results["healthz"]
    assert status == 200 and body == b"ok\n"
    assert headers["content-type"] == "text/plain"

    assert results["missing"][0] == 404
    assert results["method"][0] == 405

    status, _headers, body = results["bad_scenario"]
    assert status == 400
    error = json.loads(body)
    assert "unknown scenario" in error["error"] and error["status"] == 400

    assert results["bad_json"][0] == 400
    assert b"invalid JSON" in results["bad_json"][2]
    # `seed` belongs to /v1/run; /v1/mc wants runs/base_seed.
    assert results["bad_field"][0] == 400
    assert b"unknown field" in results["bad_field"][2]

    status, _headers, body = results["draining"]
    assert status == 503 and body == b"draining\n"


def test_payload_limit_is_enforced_at_the_boundary():
    """An oversize payload is a 400 before any pool execution; the
    largest payload that fits the PSDU still runs."""

    def payload(size):
        return {
            "scenario": "owned-only",
            "seed": 2021,
            "years": 0.1,
            "report_days": 5.0,
            "overrides": {"payload_bytes": size},
        }

    async def scenario(server):
        port = server.port
        over = await post_json(port, "/v1/run", payload(MAX_PAYLOAD_BYTES + 1))
        after_over = server.service.metrics_text()
        fits = await post_json(port, "/v1/run", payload(MAX_PAYLOAD_BYTES))
        return over, after_over, fits

    over, after_over, fits = run_async(_serve(scenario))
    status, _headers, body = over
    assert status == 400
    assert "exceeds 802.15.4 PSDU" in json.loads(body)["error"]
    assert "serve_executions_total 0" in after_over
    assert fits[0] == 200
    assert fits[1]["x-cache"] == "miss"


def test_malformed_fault_plans_are_400s_before_any_execution():
    """Each ill-typed plan gets a 400 naming the fault and the field, on
    a connection that stays open; none reaches the pool."""
    kill = {"kind": "kill", "at_s": 5.0, "select": {"by": "tier"}}
    faults = [
        ({**kill, "select": "x"}, "field 'select' must be an object"),
        ({**kill, "select": {"by": "name", "names": [1]}},
         "field 'select.names' must be a list of strings"),
        ({**kill, "colour": "red"}, "unknown field(s) ['colour']"),
        ({**kill, "at_s": float("nan")}, "field 'at_s' must be a finite number"),
        ({"kind": "churn-burst", "at_s": 1, "k": 2.7},
         "field 'k' must be an integer"),
    ]

    async def scenario(server):
        conn = await open_keepalive(server.port)
        replies = []
        for fault, _message in faults:
            payload = {"scenario": "owned-only", "years": 0.1,
                       "faults": {"version": 1, "faults": [fault]}}
            replies.append(
                await post_json(server.port, "/v1/run", payload, conn=conn)
            )
        conn[1].close()
        return replies, server.service.metrics_text()

    replies, metrics = run_async(_serve(scenario))
    for (fault, message), (status, _headers, body) in zip(faults, replies):
        assert status == 400
        kind = fault["kind"]
        assert json.loads(body)["error"].startswith(
            f"bad fault plan: fault #0 ({kind}): {message}"
        )
    assert "serve_executions_total 0" in metrics


def test_golden_fixture_matches_direct_compute():
    """The fixture is reproducible without any server at all."""
    with open(
        os.path.join(GOLDEN_DIR, "run_as-designed_chaos_seed2021.json")
    ) as handle:
        golden = json.load(handle)
    request = parse_request(golden["request"], "run")
    body = compute_response(request)
    assert hashlib.sha256(body).hexdigest() == golden["body_sha256"]
