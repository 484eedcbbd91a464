"""Dynamic work-queue scheduling for Monte-Carlo runs, on one worker pool.

:func:`execute_runs` submits chunks of runs to a :class:`WorkerPool` and
collects them in *completion* order, while an in-order collector hands
results to the caller in *index* order.  Chunk sizes adapt to the
observed per-run wall clock so a study whose run times vary does not
straggle on the tail.  A run that raises becomes a :class:`FailedRun`
record instead of aborting the study, and a worker that dies breaks only
the chunks in flight: those indices re-execute on a rebuilt pool.
Errors that are not a run's own — a failing ``consume``/``on_failure``
sink (a full disk under the shard writer), a result that cannot cross
the process boundary — stop the study and reach the caller unchanged.

:class:`WorkerPool` is the package's one worker pool; the scenario
service (:mod:`repro.serve.service`) submits through it too.  It starts
a ``ProcessPoolExecutor`` on first use and replaces it when a worker
dies.  Only if a process pool cannot be created or started at all does
it fall back, for good, to a thread pool of the same size, with one
``RuntimeWarning``: the results are identical, only slower.

Determinism is untouched by any of this: seeds are fixed before
dispatch (see :func:`~repro.runtime.runner.derive_seeds`), every run is
independent, and the collector hands results over in run-index order
no matter which worker finished first.  The collector also bounds
**streaming** memory: with ``consume=`` (the shard writer) each result
is handed over once and the scheduler holds only the out-of-order
window — O(workers x chunk), not O(runs).
"""

from __future__ import annotations

import math
import os
import traceback
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Executes one run: ``run_one(task, index, seed) -> RunResult``.  Must
#: be a picklable module-level function for process-pool dispatch.
RunOne = Callable[[object, int, int], object]

#: One unit of schedulable work: ``(run index, run seed)``.
IndexSeed = Tuple[int, int]

#: Aim each dispatched chunk at this much work: long enough to amortize
#: the pickle/IPC round-trip, short enough that the tail stays balanced.
TARGET_CHUNK_S = 0.25

#: Hard cap on adaptive chunk growth.  This bounds both scheduling
#: granularity (a straggler chunk can cost at most this many runs of
#: imbalance) and streaming memory (the reorder window is O(workers x
#: MAX_CHUNK) results).
MAX_CHUNK = 32

#: How many times an index may be caught in a broken pool before it is
#: recorded as failed instead of re-executed.  A run that reproducibly
#: kills its worker must not rebuild the pool forever.
MAX_INDEX_RETRIES = 2


class MonteCarloExecutionError(RuntimeError):
    """Raised when a study produces no successful runs at all."""


def resolve_workers(workers: int) -> int:
    """Resolve a worker-count request; the single source of truth.

    ``0`` means "one worker per CPU" (``os.cpu_count()``, falling back
    to 1 where the platform cannot say).  Positive counts pass through;
    negative counts are a :class:`ValueError`.  The CLI, the runner,
    and the shard executor all resolve through here so the semantics
    live in exactly one documented place.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)


class WorkerPool(Executor):
    """The one worker pool: processes when possible, threads when not.

    The process pool starts on the first :meth:`submit`.  A submit to a
    pool that a dead worker broke replaces it first (:attr:`rebuilds`);
    the futures lost with it raise ``BrokenProcessPool`` and the caller
    decides what to re-run.  If creating or starting the process pool
    raises ``OSError``, ``ImportError`` or ``NotImplementedError``, the
    pool switches for good to a same-size thread pool and warns once.
    An error raised by the submitted work reaches its future unchanged.
    Submit from one thread: the pool takes no lock.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_workers(workers)
        self._executor: Optional[Executor] = None
        #: "process", or "thread" after the fallback.
        self.kind = "process"
        #: Process pools replaced after a worker died.
        self.rebuilds = 0

    def submit(self, fn, /, *args, **kwargs) -> Future:
        try:
            if self._executor is None:
                self._executor = self._new_executor()
            try:
                return self._executor.submit(fn, *args, **kwargs)
            except BrokenProcessPool:
                self._executor.shutdown(wait=False)
                self._executor = self._new_executor()
                self.rebuilds += 1
                return self._executor.submit(fn, *args, **kwargs)
        except (OSError, ImportError, NotImplementedError) as exc:
            if self.kind == "thread":
                raise
            if self._executor is not None:
                self._executor.shutdown(wait=False)
            warnings.warn(
                f"process pool unavailable ({exc!r}); running {self.workers} "
                f"worker thread(s) instead — results are identical, only slower",
                RuntimeWarning,
                stacklevel=2,
            )
            self.kind = "thread"
            self._executor = self._new_executor()
            return self._executor.submit(fn, *args, **kwargs)

    def _new_executor(self) -> Executor:
        if self.kind == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return ProcessPoolExecutor(max_workers=self.workers)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._executor = None


@dataclass(frozen=True)
class FailedRun:
    """One run that raised (or whose worker died) instead of returning.

    Captured per run so a single poisoned seed no longer aborts the
    whole study: completed work survives, and the failure travels in
    :attr:`MonteCarloStudy.failures` with enough context to reproduce
    it (``task(index, seed)`` re-raises deterministically).
    """

    index: int
    seed: int
    error: str
    traceback: str = ""


@dataclass
class ExecutionStats:
    """Observability counters for one :func:`execute_runs` call."""

    #: "serial", "pool" or "thread" — which execution strategy ran
    #: ("thread" when no process pool could be started).
    mode: str = "serial"
    #: Chunks submitted to the pool (0 for serial execution).
    dispatched_chunks: int = 0
    #: Largest adaptive chunk size the scheduler reached.
    max_chunk_size: int = 1
    #: Times the process pool died and was rebuilt.
    pool_rebuilds: int = 0
    #: Indices re-dispatched after being lost to a broken pool.
    reexecuted_indices: int = 0
    #: High-water mark of results held in the reorder window.  The
    #: bounded-memory contract: O(workers x chunk), never O(runs).
    peak_resident_results: int = 0


@dataclass
class ExecutionReport:
    """What :func:`execute_runs` hands back to the caller."""

    #: Successful results in index order — empty when ``consume`` was
    #: given (streamed results are not retained).
    results: List[object] = field(default_factory=list)
    #: Failed runs in index order.
    failures: List[FailedRun] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)


#: Tagged per-run outcome crossing the process boundary.
_Outcome = Tuple[str, object]  # ("ok", RunResult) | ("err", FailedRun)


def _run_chunk(run_one: RunOne, task: object, items: Sequence[IndexSeed]) -> List[_Outcome]:
    """Execute a chunk of runs in a worker, capturing per-run failures.

    Module-level so it pickles.  Exceptions are caught *per run*: a
    poisoned index yields a :class:`FailedRun` record and the rest of
    the chunk still executes — the fix for the old all-or-nothing map.
    """
    outcomes: List[_Outcome] = []
    for index, seed in items:
        try:
            outcomes.append(("ok", run_one(task, index, seed)))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            outcomes.append(("err", FailedRun(index, seed, error, traceback.format_exc())))
    return outcomes


class _InOrderCollector:
    """Reassemble completion-order outcomes into index order.

    Outcomes arrive in whatever order workers finish; callers must see
    them in run-index order (deterministic output files, bit-stable
    float merge order).  The collector buffers only the out-of-order
    window and flushes greedily, tracking its own high-water mark so
    the bounded-memory contract is assertable.
    """

    def __init__(
        self,
        order: Sequence[int],
        consume: Callable[[object], None],
        on_failure: Callable[[FailedRun], None],
    ) -> None:
        self._order = list(order)
        self._consume = consume
        self._on_failure = on_failure
        self._buffer: Dict[int, _Outcome] = {}
        self._pos = 0
        self.peak = 0

    def add(self, index: int, outcome: _Outcome) -> None:
        self._buffer[index] = outcome
        if len(self._buffer) > self.peak:
            self.peak = len(self._buffer)
        while self._pos < len(self._order):
            expected = self._order[self._pos]
            if expected not in self._buffer:
                break
            kind, payload = self._buffer.pop(expected)
            if kind == "ok":
                self._consume(payload)
            else:
                self._on_failure(payload)
            self._pos += 1


def _adaptive_chunk_size(
    ema_run_s: Optional[float], pending: int, workers: int
) -> int:
    """Next chunk size from the observed per-run wall clock.

    Three bounds compose: the *target* (enough runs to fill
    :data:`TARGET_CHUNK_S` of work), the *fair share* (never batch so
    much that workers idle near the tail), and the hard
    :data:`MAX_CHUNK` cap that keeps the streaming reorder window small.
    """
    if ema_run_s is None or ema_run_s <= 0.0:
        return 1
    target = max(1, int(TARGET_CHUNK_S / ema_run_s))
    fair = max(1, math.ceil(pending / (2 * workers)))
    return max(1, min(target, fair, MAX_CHUNK))


def execute_runs(
    run_one: RunOne,
    task: object,
    pairs: Sequence[IndexSeed],
    workers: int,
    consume: Optional[Callable[[object], None]] = None,
    on_failure: Optional[Callable[[FailedRun], None]] = None,
) -> ExecutionReport:
    """Execute ``pairs`` with the dynamic work-queue scheduler.

    ``pairs`` is any ascending-index slice of a seed schedule (a full
    study, or one shard's residue class).  Results reach ``consume`` —
    or, when it is ``None``, the returned report — in index order,
    regardless of worker count or completion order.  Per-run exceptions
    become :class:`FailedRun` records via ``on_failure`` (or the
    report); a broken pool is rebuilt and only the in-flight indices
    re-execute, each at most :data:`MAX_INDEX_RETRIES` times.  An
    exception from ``consume`` or ``on_failure`` stops the study and
    propagates.  ``workers == 1`` runs in-process.
    """
    workers = resolve_workers(workers)
    report = ExecutionReport()
    sink = report.results.append if consume is None else consume

    def fail_sink(failed: FailedRun) -> None:
        report.failures.append(failed)
        if on_failure is not None:
            on_failure(failed)

    collector = _InOrderCollector([i for i, _ in pairs], sink, fail_sink)

    if workers == 1:
        # In-process: same outcomes, one result resident at a time.
        for index, seed in pairs:
            collector.add(index, _run_chunk(run_one, task, ((index, seed),))[0])
    else:
        _execute_pool(run_one, task, pairs, workers, collector, report.stats)
    report.stats.peak_resident_results = collector.peak
    return report


def _execute_pool(
    run_one: RunOne,
    task: object,
    pairs: Sequence[IndexSeed],
    workers: int,
    collector: _InOrderCollector,
    stats: ExecutionStats,
) -> None:
    """The dynamic dispatch loop.  See module docstring for the design."""
    pending = deque(pairs)
    retry_counts: Dict[int, int] = {}
    chunk_size = 1
    ema_run_s: Optional[float] = None
    pool = WorkerPool(workers)
    inflight: Dict[Future, Tuple[IndexSeed, ...]] = {}
    try:
        while pending or inflight:
            # Top up: keep 2 x workers chunks outstanding — enough to
            # pipeline, few enough that chunk sizing stays adaptive.
            while pending and len(inflight) < 2 * workers:
                items = tuple(
                    pending.popleft() for _ in range(min(chunk_size, len(pending)))
                )
                inflight[pool.submit(_run_chunk, run_one, task, items)] = items
                stats.dispatched_chunks += 1
                if len(items) > stats.max_chunk_size:
                    stats.max_chunk_size = len(items)

            requeue: List[IndexSeed] = []
            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                items = inflight.pop(future)
                try:
                    outcomes = future.result()
                except BrokenProcessPool:
                    # A worker died and broke the pool: every chunk in
                    # flight there fails here.  Re-run exactly those
                    # indices, on the pool the next submit rebuilds.
                    for index, seed in items:
                        retry_counts[index] = retry_counts.get(index, 0) + 1
                        if retry_counts[index] <= MAX_INDEX_RETRIES:
                            requeue.append((index, seed))
                            continue
                        error = (
                            f"worker process died {retry_counts[index]} "
                            "times running this index"
                        )
                        collector.add(index, ("err", FailedRun(index, seed, error)))
                    continue
                for (index, _seed), outcome in zip(items, outcomes):
                    collector.add(index, outcome)
                    if outcome[0] == "ok":
                        observed = getattr(outcome[1], "wall_clock_s", 0.0)
                        if observed > 0.0:
                            ema_run_s = (
                                observed
                                if ema_run_s is None
                                else 0.5 * ema_run_s + 0.5 * observed
                            )
            chunk_size = _adaptive_chunk_size(ema_run_s, len(pending), workers)

            if requeue:
                stats.reexecuted_indices += len(requeue)
                pending = deque(sorted(requeue) + list(pending))
                # Relearn chunk size conservatively: one bad index per
                # chunk keeps blast radius and retry attribution tight.
                chunk_size = 1
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        stats.mode = "pool" if pool.kind == "process" else "thread"
        stats.pool_rebuilds = pool.rebuilds


__all__ = [
    "ExecutionReport",
    "ExecutionStats",
    "FailedRun",
    "MAX_CHUNK",
    "MAX_INDEX_RETRIES",
    "MonteCarloExecutionError",
    "TARGET_CHUNK_S",
    "WorkerPool",
    "execute_runs",
    "resolve_workers",
]
