"""The scenario service: single-flight execution over a bounded pool.

:class:`ScenarioService` is the transport-independent core of
``repro.serve`` — the HTTP layer (:mod:`repro.serve.http`) is a thin
codec around :meth:`ScenarioService.handle`.  Responsibilities:

* **Exact memoization** — responses are cached under the request's
  content digest (:meth:`~repro.serve.request.ServeRequest.digest`).
  Determinism makes the cache perfect: a hit never touches the worker
  pool and is byte-identical to what a cold run would produce.
* **Single-flight** — N concurrent identical requests trigger exactly
  one execution; late arrivals await the first one's future.  The
  thundering-herd behavior a public endpoint needs on the morning a
  dataset goes viral.
* **Backpressure** — at most ``queue_limit`` executions may be queued
  or running; beyond that a *new* computation is refused with 429
  (cache hits and coalesced waits are always served).
* **Timeouts** — a waiter that exceeds ``timeout_s`` gets a clean 504.
  The underlying run keeps going and may still populate the cache;
  only *successful, complete* bodies are ever inserted, so a timeout
  can never poison the cache.
* **Graceful drain** — :meth:`drain` stops new work, waits for
  in-flight runs, and leaves every accepted request answered.
* **One pool** — runs go to the runtime's
  :class:`~repro.runtime.queue.WorkerPool`.  A request whose worker
  dies is retried once on the rebuilt pool; a computation's own error
  is a 500 and leaves the pool alone.

Response bodies are computed by :func:`compute_response`, a picklable
module-level function: ``/v1/run`` bodies are exactly the canonical
metrics JSONL that ``python -m repro run --metrics`` writes offline,
and ``/v1/mc`` bodies are exactly the ``mc --metrics`` file — the
byte-identity the acceptance tests assert.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..obs import MetricsRegistry, snapshot_json, to_prometheus
from ..runtime.queue import WorkerPool, resolve_workers
from ..runtime.runner import (
    MonteCarloRunner,
    _execute,
    study_metrics_entries,
)
from .cache import ResponseCache
from .request import ServeRequest

#: Latency histogram edges (seconds): sub-ms cache hits up to
#: multi-minute Monte-Carlo studies, fixed at registration.
LATENCY_EDGES = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def run_response_body(request: ServeRequest) -> bytes:
    """The ``/v1/run`` response: one canonical metrics JSONL line.

    Byte-identical to the file ``python -m repro run <scenario> --seed S
    --metrics PATH`` writes for the same parameters — same meta keys,
    same canonical serialization, same trailing newline.
    """
    result = _execute(request.to_task(), 0, request.seed)
    line = snapshot_json(
        result.metrics, scenario=request.scenario, seed=request.seed
    )
    return (line + "\n").encode("utf-8")


def mc_response_body(request: ServeRequest) -> bytes:
    """The ``/v1/mc`` response: the study's canonical metrics JSONL.

    One line per run plus the merged line (failure count included) —
    byte-identical to ``python -m repro mc … --metrics PATH`` at any
    worker count, because snapshots merge order-independently.
    """
    study = MonteCarloRunner(
        request.to_task(), runs=request.runs, base_seed=request.base_seed
    ).run()
    per_run, merged = study_metrics_entries(study)
    pieces = [
        snapshot_json(snapshot, **meta) + "\n"
        for meta, snapshot in (*per_run, merged)
    ]
    return "".join(pieces).encode("utf-8")


def compute_response(request: ServeRequest) -> bytes:
    """Compute one request's full response body (picklable; runs in a
    pool worker).  MC studies execute serially *inside* their worker —
    the service's pool is the only fan-out, so concurrency stays
    bounded by ``workers`` no matter the request mix."""
    if request.endpoint == "run":
        return run_response_body(request)
    return mc_response_body(request)


@dataclass(frozen=True)
class ServeResponse:
    """One answered request: HTTP status, body, and cache provenance."""

    status: int
    body: bytes
    #: "hit" | "miss" | "coalesced" | "" (non-cacheable outcomes).
    cache: str = ""
    digest: str = ""
    content_type: str = "application/json"

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def _error_body(status: int, message: str) -> bytes:
    return (
        json.dumps(
            {"error": message, "status": status},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    ).encode("utf-8")


class ScenarioService:
    """Deterministic scenario results over a bounded worker pool.

    The service owns its pool, an injected ``executor`` included, and
    :meth:`close` shuts it down."""

    def __init__(
        self,
        workers: int = 0,
        queue_limit: Optional[int] = None,
        timeout_s: float = 300.0,
        cache: Optional[ResponseCache] = None,
        compute: Callable[[ServeRequest], bytes] = compute_response,
        executor: Optional[Executor] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        #: Beyond this many queued-or-running executions, new
        #: computations are refused with 429.  Cache hits never count.
        self.queue_limit = (
            4 * self.workers if queue_limit is None else int(queue_limit)
        )
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.timeout_s = float(timeout_s)
        self.cache = cache if cache is not None else ResponseCache()
        self._compute = compute
        self._executor: Executor = (
            executor if executor is not None else WorkerPool(self.workers)
        )
        self._inflight: Dict[str, "asyncio.Task[bytes]"] = {}
        self._jobs = 0
        self._draining = False

        registry = MetricsRegistry()
        self.registry = registry
        self._hits = registry.counter("serve_cache_hits_total")
        self._misses = registry.counter("serve_cache_misses_total")
        self._coalesced = registry.counter("serve_coalesced_total")
        self._executions = registry.counter("serve_executions_total")
        self._failures = registry.counter("serve_compute_failures_total")
        registry.gauge_fn("serve_queue_depth", lambda: self._jobs, agg="max")
        self._latency = registry.histogram(
            "serve_request_latency_seconds", edges=LATENCY_EDGES
        )

    # -- lifecycle ------------------------------------------------------
    async def _run_in_pool(self, request: ServeRequest) -> bytes:
        """Compute one response body on the pool.

        A worker that dies mid-run breaks the process pool: the request
        is retried once, and that resubmit rebuilds the pool.  Any other
        error, including one the computation raises, propagates to the
        waiters and leaves the pool as it is.
        """
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor, self._compute, request)
        except BrokenProcessPool:
            return await loop.run_in_executor(self._executor, self._compute, request)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_jobs(self) -> int:
        return self._jobs

    async def drain(self) -> None:
        """Refuse new executions, then wait for in-flight ones.

        Every request already accepted is answered; ``healthz`` flips
        to 503 so load balancers stop routing here.  Idempotent.
        """
        self._draining = True
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )
            # Let completion callbacks run before re-checking.
            await asyncio.sleep(0)

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    # -- metrics --------------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus exposition body for ``GET /metrics``."""
        stats = self.cache.stats
        registry = self.registry
        registry.gauge("serve_cache_memory_bytes", agg="max").set(
            self.cache.memory_bytes
        )
        registry.gauge("serve_cache_disk_bytes", agg="max").set(
            self.cache.disk_bytes
        )
        registry.gauge("serve_cache_entries", agg="max").set(len(self.cache))
        for tier, hits, evictions in (
            ("memory", stats.memory_hits, stats.memory_evictions),
            ("disk", stats.disk_hits, stats.disk_evictions),
        ):
            registry.gauge(
                "serve_cache_tier_hits", agg="sum", tier=tier
            ).set(hits)
            registry.gauge(
                "serve_cache_tier_evictions", agg="sum", tier=tier
            ).set(evictions)
        registry.gauge("serve_cache_verify_failures", agg="sum").set(
            stats.verify_failures
        )
        registry.gauge("serve_cache_disk_write_failures", agg="sum").set(
            stats.disk_write_failures
        )
        return to_prometheus(registry.snapshot())

    # -- the request path ----------------------------------------------
    async def handle(self, request: ServeRequest) -> ServeResponse:
        """Answer one validated request; never raises."""
        started = time.perf_counter()
        response = await self._handle(request)
        self._latency.observe(time.perf_counter() - started)
        self.registry.counter(
            "serve_requests_total",
            endpoint=request.endpoint,
            status=str(response.status),
        ).inc()
        return response

    async def _handle(self, request: ServeRequest) -> ServeResponse:
        digest = request.digest()
        key = digest.split(":", 1)[1]

        body = self.cache.get(key)
        if body is not None:
            self._hits.inc()
            return ServeResponse(200, body, cache="hit", digest=digest)
        self._misses.inc()

        shared = self._inflight.get(key)
        if shared is not None:
            # Single-flight: ride the execution already in progress.
            self._coalesced.inc()
            return await self._await_job(shared, digest, cache="coalesced")

        if self._draining:
            return ServeResponse(
                503,
                _error_body(503, "service is draining"),
                digest=digest,
            )
        if self._jobs >= self.queue_limit:
            return ServeResponse(
                429,
                _error_body(
                    429,
                    f"execution queue is full "
                    f"({self._jobs} of {self.queue_limit} slots in use); "
                    f"retry later",
                ),
                digest=digest,
            )

        loop = asyncio.get_running_loop()
        self._jobs += 1
        job: "asyncio.Task[bytes]" = loop.create_task(
            self._execute_job(request, key)
        )
        self._inflight[key] = job
        job.add_done_callback(lambda fut: self._finish_job(key, fut))
        return await self._await_job(job, digest, cache="miss")

    async def _execute_job(self, request: ServeRequest, key: str) -> bytes:
        self._executions.inc()
        body = await self._run_in_pool(request)
        # Only a complete, successful body is ever cached — waiter
        # timeouts and compute failures cannot poison future hits.
        self.cache.put(key, body)
        return body

    def _finish_job(self, key: str, fut: "asyncio.Task[bytes]") -> None:
        self._inflight.pop(key, None)
        self._jobs -= 1
        # Every waiter may have timed out before the job failed; retrieve
        # the exception so the loop never logs an unconsumed one.
        if not fut.cancelled() and fut.exception() is not None:
            self._failures.inc()

    async def _await_job(
        self,
        job: "asyncio.Task[bytes]",
        digest: str,
        cache: str,
    ) -> ServeResponse:
        try:
            body = await asyncio.wait_for(
                asyncio.shield(job), timeout=self.timeout_s
            )
        except asyncio.TimeoutError:
            # The run continues in the background (it may still finish
            # and warm the cache); this waiter gets a clean 504 now.
            return ServeResponse(
                504,
                _error_body(
                    504,
                    f"run exceeded the {self.timeout_s:g} s request "
                    f"timeout; it continues in the background — retry "
                    f"to pick up the cached result",
                ),
                digest=digest,
            )
        except Exception as exc:
            return ServeResponse(
                500,
                _error_body(500, f"{type(exc).__name__}: {exc}"),
                digest=digest,
            )
        return ServeResponse(200, body, cache=cache, digest=digest)


__all__ = [
    "LATENCY_EDGES",
    "ScenarioService",
    "ServeResponse",
    "compute_response",
    "mc_response_body",
    "run_response_body",
]
