"""Concurrency-behavior tests for :class:`ScenarioService`.

These stub the compute function — they exercise the service's
scheduling contract (single-flight, backpressure, drain, timeouts,
failure isolation), not the simulator.  A thread executor keeps the
stub observable (shared events and counters) where a process pool
would hide it.
"""

from __future__ import annotations

import asyncio
import errno
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from conftest import run_async
from repro.runtime import queue
from repro.serve import ResponseCache, ScenarioService, parse_request
from tests.conftest import needs_pool, refuse_processes


def make_request(seed: int):
    return parse_request(
        {"scenario": "owned-only", "seed": seed, "years": 0.1}, "run"
    )


def make_service(compute, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("queue_limit", 4)
    kwargs.setdefault("timeout_s", 10.0)
    return ScenarioService(
        cache=ResponseCache(),
        compute=compute,
        executor=ThreadPoolExecutor(max_workers=2),
        **kwargs,
    )


async def wait_until(predicate, timeout_s: float = 5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


def test_single_flight_exactly_one_execution():
    calls = []
    started = threading.Event()
    release = threading.Event()

    def compute(request):
        calls.append(request.seed)
        started.set()
        assert release.wait(5.0)
        return b"the-one-body\n"

    async def scenario():
        service = make_service(compute)
        request = make_request(seed=1)
        waiters = [
            asyncio.ensure_future(service.handle(request)) for _ in range(8)
        ]
        # Release the (single) execution only once every waiter has had a
        # chance to register against it.
        await wait_until(started.is_set)
        await wait_until(lambda: service._coalesced.value == 7)
        release.set()
        responses = await asyncio.gather(*waiters)
        service.close()
        return service, responses

    service, responses = run_async(scenario())
    assert len(calls) == 1  # exactly one pool execution
    assert all(r.status == 200 for r in responses)
    assert all(r.body == b"the-one-body\n" for r in responses)
    assert sorted(r.cache for r in responses) == ["coalesced"] * 7 + ["miss"]
    assert "serve_executions_total 1" in service.metrics_text()


def test_cache_hit_never_touches_pool():
    calls = []

    def compute(request):
        calls.append(request.seed)
        return b"cached-body\n"

    async def scenario():
        service = make_service(compute)
        first = await service.handle(make_request(seed=3))
        # Shut the pool down on purpose: a hit must not need it.
        service.close()
        second = await service.handle(make_request(seed=3))
        return first, second

    first, second = run_async(scenario())
    assert (first.cache, second.cache) == ("miss", "hit")
    assert first.body == second.body == b"cached-body\n"
    assert calls == [3]


def test_queue_full_gives_429_and_recovers():
    release = threading.Event()

    def compute(request):
        assert release.wait(5.0)
        return b"slow-body\n"

    async def scenario():
        service = make_service(compute, queue_limit=1)
        blocked = asyncio.ensure_future(service.handle(make_request(seed=1)))
        await wait_until(lambda: service.inflight_jobs == 1)

        refused = await service.handle(make_request(seed=2))
        assert refused.status == 429
        assert b"queue is full" in refused.body
        # A hit for already-cached content is still served at capacity.
        release.set()
        first = await blocked
        assert first.status == 200 and first.cache == "miss"
        hit = await service.handle(make_request(seed=1))
        assert hit.status == 200 and hit.cache == "hit"
        # ... and the refused request succeeds once the queue drains.
        retried = await service.handle(make_request(seed=2))
        assert retried.status == 200 and retried.cache == "miss"
        service.close()
        return service

    service = run_async(scenario())
    assert "serve_requests_total" in service.metrics_text()


def test_drain_finishes_inflight_then_refuses():
    release = threading.Event()

    def compute(request):
        assert release.wait(5.0)
        return b"drained-body\n"

    async def scenario():
        service = make_service(compute)
        inflight = asyncio.ensure_future(service.handle(make_request(seed=1)))
        await wait_until(lambda: service.inflight_jobs == 1)

        drainer = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0.01)
        assert service.draining
        # New computations are refused mid-drain ...
        refused = await service.handle(make_request(seed=2))
        assert refused.status == 503
        assert b"draining" in refused.body

        release.set()
        finished = await inflight
        await asyncio.wait_for(drainer, timeout=5.0)
        assert service.inflight_jobs == 0
        # ... but the accepted request was answered in full,
        assert finished.status == 200
        assert finished.body == b"drained-body\n"
        # ... and cached content is still served after the drain.
        hit = await service.handle(make_request(seed=1))
        assert hit.status == 200 and hit.cache == "hit"
        service.close()

    run_async(scenario())


def test_timeout_504_without_cache_poisoning():
    release = threading.Event()

    def compute(request):
        assert release.wait(5.0)
        return b"eventual-body\n"

    async def scenario():
        service = make_service(compute, timeout_s=0.05)
        request = make_request(seed=1)
        key = request.cache_key()

        timed_out = await service.handle(request)
        assert timed_out.status == 504
        assert b"timeout" in timed_out.body
        # Nothing half-written landed in the cache.
        cached = service.cache.get(key)
        assert cached is None

        # The run continues in the background and warms the cache.
        job = service._inflight.get(key)
        assert job is not None
        release.set()
        await asyncio.wait_for(job, timeout=5.0)
        hit = await service.handle(request)
        assert hit.status == 200 and hit.cache == "hit"
        assert hit.body == b"eventual-body\n"
        service.close()

    run_async(scenario())


def test_compute_failure_is_500_and_not_cached():
    attempts = []

    def compute(request):
        attempts.append(request.seed)
        if len(attempts) == 1:
            raise ValueError("injected defect")
        return b"second-try-body\n"

    async def scenario():
        service = make_service(compute)
        request = make_request(seed=9)

        failed = await service.handle(request)
        assert failed.status == 500
        assert b"ValueError" in failed.body and b"injected defect" in failed.body
        assert service.cache.get(request.cache_key()) is None
        await wait_until(lambda: service.inflight_jobs == 0)

        # The failure was not memoized: a retry recomputes and succeeds.
        retried = await service.handle(request)
        assert retried.status == 200 and retried.cache == "miss"
        assert retried.body == b"second-try-body\n"
        hit = await service.handle(request)
        assert hit.cache == "hit"
        text = service.metrics_text()
        assert "serve_compute_failures_total 1" in text
        service.close()

    run_async(scenario())


def test_full_disk_still_answers_200_from_memory(tmp_path, monkeypatch):
    from repro.serve import cache as cache_module

    def compute(request):
        return f"body-for-seed-{request.seed}\n".encode()

    async def first_answer(service):
        response = await service.handle(make_request(seed=4))
        await wait_until(lambda: service.inflight_jobs == 0)
        return response

    def disk_service(name):
        return ScenarioService(
            cache=ResponseCache(disk_dir=str(tmp_path / name)),
            compute=compute,
            executor=ThreadPoolExecutor(max_workers=1),
        )

    healthy = disk_service("healthy")
    expected = run_async(first_answer(healthy))
    healthy.close()
    assert expected.status == 200

    class FullDisk(cache_module.SealedWriter):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cache_module, "SealedWriter", FullDisk)
    service = disk_service("full")
    first = run_async(first_answer(service))
    assert (first.status, first.cache) == (200, "miss")
    assert first.body == expected.body
    assert os.listdir(tmp_path / "full") == []  # aborted: no .tmp left
    assert service.cache.stats.disk_write_failures == 1
    assert "serve_cache_disk_write_failures 1" in service.metrics_text()
    again = run_async(first_answer(service))
    assert (again.status, again.cache, again.body) == (200, "hit", expected.body)
    assert service.cache.stats.memory_hits == 1
    service.close()


def _disk_error(request):
    raise OSError(errno.EIO, "input/output error")


def _fake_compute(request):
    return f"fake:{request.seed}\n".encode()


@dataclass(frozen=True)
class _ExitOnce:
    """Kills its worker process on the first call, answers afterwards."""

    sentinel: str

    def __call__(self, request):
        if not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            os._exit(13)
        return b"survived\n"


def _answer_on_own_pool(compute):
    """One request through a service on its default pool: status, body,
    the pool's kind and rebuild count, and the warnings raised."""

    async def scenario():
        service = ScenarioService(workers=1, cache=ResponseCache(), compute=compute)
        response = await service.handle(make_request(seed=4))
        service.close()
        pool = service._executor
        return response.status, response.body, pool.kind, pool.rebuilds

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run_async(scenario())
    return (*outcome, [w.category for w in caught])


@needs_pool
def test_compute_oserror_is_500_and_keeps_process_pool():
    status, body, *pool = _answer_on_own_pool(_disk_error)
    assert (status, pool) == (500, ["process", 0, []])
    assert b"OSError: [Errno 5] input/output error" in body


@needs_pool
def test_dead_worker_is_retried_on_rebuilt_pool(tmp_path):
    outcome = _answer_on_own_pool(_ExitOnce(str(tmp_path / "died-once")))
    assert outcome == (200, b"survived\n", "process", 1, [])


def test_unstartable_pool_falls_back_to_threads(monkeypatch):
    monkeypatch.setattr(queue, "ProcessPoolExecutor", refuse_processes)
    outcome = _answer_on_own_pool(_fake_compute)
    assert outcome == (200, b"fake:4\n", "thread", 0, [RuntimeWarning])
