"""Dynamic work-queue scheduling for Monte-Carlo runs, on one worker pool.

:func:`execute_runs` submits one run per future to a :class:`WorkerPool`
and collects them in *completion* order, while an in-order collector
hands results to the caller in *index* order.  A run that raises becomes
a :class:`FailedRun` record instead of aborting the study.  A worker
that dies breaks every run in flight: each of those indices re-runs
*alone* on the rebuilt pool, and only an index whose worker dies while
it is the sole run in flight is recorded as failed — so the failed set
is a function of the task, never of which runs shared the pool.
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
no matter which worker finished first.  With ``consume=`` (the shard
writer) each result is handed over once, and the scheduler holds only
the out-of-order window: the results that finished after the lowest
index still running.  With ``2 x workers`` runs in flight and similar
run times that is a few times ``workers``; a straggler lets it grow by
the runs finished meanwhile.
"""

from __future__ import annotations

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
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Executes one run: ``run_one(task, index, seed) -> RunResult``.  Must
#: be a picklable module-level function for process-pool dispatch.
RunOne = Callable[[object, int, int], object]

#: One unit of schedulable work: ``(run index, run seed)``.
IndexSeed = Tuple[int, int]


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
    #: Runs submitted to the pool, re-runs included (0 for serial
    #: execution).
    dispatched_chunks: int = 0
    #: Times the process pool died and was rebuilt.
    pool_rebuilds: int = 0
    #: Indices re-run alone after being lost to a broken pool.
    reexecuted_indices: int = 0
    #: High-water mark of results held in the reorder window.
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


def _run_chunk(run_one: RunOne, task: object, index: int, seed: int) -> _Outcome:
    """Execute one run in a worker, capturing its failure.

    Module-level so it pickles.  A run that raises yields a
    :class:`FailedRun` record instead of an exception, so the study
    goes on without it.  perfbench's ``runtime.worker`` layer wraps
    this function by name.
    """
    try:
        return ("ok", run_one(task, index, seed))
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return ("err", FailedRun(index, seed, error, traceback.format_exc()))


class _InOrderCollector:
    """Reassemble completion-order outcomes into index order.

    Outcomes arrive in whatever order workers finish; callers must see
    them in run-index order (deterministic output files, bit-stable
    float merge order).  The collector buffers only the out-of-order
    window and flushes greedily, tracking its own high-water mark
    (:attr:`ExecutionStats.peak_resident_results`).
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
    report); a broken pool is rebuilt and each index lost with it
    re-runs alone, failing only if its worker dies then too.  An
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
            collector.add(index, _run_chunk(run_one, task, index, seed))
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
    # Indices lost to a broken pool, each to re-run alone.
    lost: Deque[IndexSeed] = deque()
    # The future running alone, while one does.
    solo: Optional[Future] = None
    pool = WorkerPool(workers)
    inflight: Dict[Future, IndexSeed] = {}

    def submit(item: IndexSeed) -> Future:
        future = pool.submit(_run_chunk, run_one, task, *item)
        inflight[future] = item
        stats.dispatched_chunks += 1
        return future

    try:
        while pending or lost or inflight:
            if lost and not inflight:
                solo = submit(lost.popleft())
            elif not lost and solo is None:
                # Keep 2 x workers runs outstanding: enough to pipeline.
                while pending and len(inflight) < 2 * workers:
                    submit(pending.popleft())

            done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
            for future in done:
                index, seed = inflight.pop(future)
                alone = future is solo
                if alone:
                    solo = None
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    # A worker died and broke the pool: every run in
                    # flight fails here.  Only a run that was alone can
                    # be the one that killed it.
                    if not alone:
                        lost.append((index, seed))
                        stats.reexecuted_indices += 1
                        continue
                    error = "worker process died running this index"
                    outcome = ("err", FailedRun(index, seed, error))
                collector.add(index, outcome)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        stats.mode = "pool" if pool.kind == "process" else "thread"
        stats.pool_rebuilds = pool.rebuilds


__all__ = [
    "ExecutionReport",
    "ExecutionStats",
    "FailedRun",
    "MonteCarloExecutionError",
    "WorkerPool",
    "execute_runs",
    "resolve_workers",
]
