"""Dynamic work-queue scheduling for Monte-Carlo runs.

The static ``pool.map`` path the runner shipped with (PR 1/PR 3) has
three structural weaknesses at study scale:

1. **All-or-nothing failure** — one poisoned run aborts the whole map
   and loses every completed result.
2. **Static chunking** — the chunk size is fixed before the first run
   finishes, so a study whose run times vary (faulted seeds run longer)
   straggles on the tail.
3. **No recovery** — a worker process dying (OOM killer, segfault in a
   native extension) poisons the pool and the whole study with it.

:func:`execute_runs` replaces it with dynamic dispatch: chunks are
submitted via ``Executor.submit`` and collected in *completion* order,
while an in-order collector reassembles results in *index* order before
they reach the caller.  Chunk sizes adapt to the observed per-run wall
clock, per-run exceptions become :class:`FailedRun` records instead of
aborting the study, and a ``BrokenProcessPool`` rebuilds the pool and
re-executes only the indices that were actually in flight.

Determinism is untouched by any of this: seeds are fixed before
dispatch (see :func:`~repro.runtime.runner.derive_seeds`), every run is
independent, and the collector hands results to the caller in run-index
order no matter which worker finished first.  Scheduling policy can
only change *when* a run executes, never *what* it computes.

The collector is also what makes **streaming** execution memory-bounded:
a caller that passes ``consume=`` (the shard writer does) sees each
result exactly once, in index order, and the scheduler holds at most the
out-of-order window — O(workers x chunk), not O(runs) — in memory.
"""

from __future__ import annotations

import math
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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
    import os

    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return int(workers)


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

    #: "serial" or "pool" — which execution strategy actually ran.
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
            outcomes.append(
                (
                    "err",
                    FailedRun(
                        index=index,
                        seed=seed,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback.format_exc(),
                    ),
                )
            )
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
        self.seen: set = set()
        self.peak = 0

    def add(self, index: int, outcome: _Outcome) -> None:
        self._buffer[index] = outcome
        self.seen.add(index)
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

    @property
    def done(self) -> bool:
        return self._pos == len(self._order)


def _adaptive_chunk_size(
    ema_run_s: Optional[float],
    pending: int,
    workers: int,
    target_chunk_s: float,
    max_chunk: int,
) -> int:
    """Next chunk size from the observed per-run wall clock.

    Three bounds compose: the *target* (enough runs to fill
    ``target_chunk_s`` of work), the *fair share* (never batch so much
    that workers idle near the tail), and the hard :data:`MAX_CHUNK`
    cap that keeps the streaming reorder window small.
    """
    if ema_run_s is None or ema_run_s <= 0.0:
        return 1
    target = max(1, int(target_chunk_s / ema_run_s))
    fair = max(1, math.ceil(pending / (2 * workers)))
    return max(1, min(target, fair, max_chunk))


def execute_runs(
    run_one: RunOne,
    task: object,
    pairs: Sequence[IndexSeed],
    workers: int,
    consume: Optional[Callable[[object], None]] = None,
    on_failure: Optional[Callable[[FailedRun], None]] = None,
    target_chunk_s: float = TARGET_CHUNK_S,
    max_chunk: int = MAX_CHUNK,
    max_index_retries: int = MAX_INDEX_RETRIES,
) -> ExecutionReport:
    """Execute ``pairs`` with the dynamic work-queue scheduler.

    ``pairs`` is any ascending-index slice of a seed schedule (a full
    study, or one shard's residue class).  Results reach ``consume`` —
    or, when it is ``None``, the returned report — in index order,
    regardless of worker count or completion order.  Per-run exceptions
    become :class:`FailedRun` records via ``on_failure`` (or the
    report); a broken pool is rebuilt and only the in-flight indices
    re-execute, each at most ``max_index_retries`` times.
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
        _execute_serial(run_one, task, pairs, collector)
        report.stats = ExecutionStats(
            mode="serial", peak_resident_results=collector.peak
        )
        return report

    try:
        _execute_pool(
            run_one,
            task,
            pairs,
            workers,
            collector,
            report.stats,
            target_chunk_s,
            max_chunk,
            max_index_retries,
        )
        report.stats.mode = "pool"
    except (OSError, ImportError, NotImplementedError, PermissionError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc!r}); falling back to serial "
            f"execution — results are identical, only slower",
            RuntimeWarning,
            stacklevel=2,
        )
        remaining = [p for p in pairs if p[0] not in collector.seen]
        _execute_serial(run_one, task, remaining, collector)
        report.stats.mode = "serial"
    report.stats.peak_resident_results = collector.peak
    return report


def _execute_serial(
    run_one: RunOne,
    task: object,
    pairs: Sequence[IndexSeed],
    collector: _InOrderCollector,
) -> None:
    """In-process execution: same outcomes, one result resident at a time."""
    for index, seed in pairs:
        for idx_outcome in _run_chunk(run_one, task, ((index, seed),)):
            collector.add(index, idx_outcome)


def _execute_pool(
    run_one: RunOne,
    task: object,
    pairs: Sequence[IndexSeed],
    workers: int,
    collector: _InOrderCollector,
    stats: ExecutionStats,
    target_chunk_s: float,
    max_chunk: int,
    max_index_retries: int,
) -> None:
    """The dynamic dispatch loop.  See module docstring for the design."""
    pending = deque(pairs)
    retry_counts: Dict[int, int] = {}
    chunk_size = 1
    ema_run_s: Optional[float] = None
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[object, Tuple[IndexSeed, ...]] = {}
    try:
        while pending or inflight:
            lost: List[Tuple[IndexSeed, ...]] = []
            # Top up: keep 2 x workers chunks outstanding — enough to
            # pipeline, few enough that chunk sizing stays adaptive.
            while pending and len(inflight) < 2 * workers:
                items = tuple(
                    pending.popleft() for _ in range(min(chunk_size, len(pending)))
                )
                try:
                    future = pool.submit(_run_chunk, run_one, task, items)
                except BrokenProcessPool:
                    lost.append(items)
                    break
                inflight[future] = items
                stats.dispatched_chunks += 1
                if len(items) > stats.max_chunk_size:
                    stats.max_chunk_size = len(items)

            if inflight and not lost:
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                for future in done:
                    items = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        lost.append(items)
                        continue
                    except Exception as exc:
                        # Infrastructure failure for the whole chunk
                        # (e.g. an unpicklable result): record each
                        # item rather than aborting the study.
                        for index, seed in items:
                            collector.add(
                                index,
                                (
                                    "err",
                                    FailedRun(
                                        index=index,
                                        seed=seed,
                                        error=f"chunk failed: {type(exc).__name__}: {exc}",
                                    ),
                                ),
                            )
                        continue
                    for (index, seed), outcome in zip(items, outcomes):
                        collector.add(index, outcome)
                        if outcome[0] == "ok":
                            observed = getattr(outcome[1], "wall_clock_s", 0.0)
                            if observed > 0.0:
                                ema_run_s = (
                                    observed
                                    if ema_run_s is None
                                    else 0.5 * ema_run_s + 0.5 * observed
                                )
                chunk_size = _adaptive_chunk_size(
                    ema_run_s, len(pending), workers, target_chunk_s, max_chunk
                )

            if lost:
                # The pool is broken: every in-flight chunk is gone with
                # it.  Recover exactly the lost indices — completed work
                # is already in the collector and is never re-run.
                lost.extend(inflight.values())
                inflight.clear()
                pool.shutdown(wait=False)
                stats.pool_rebuilds += 1
                requeue: List[IndexSeed] = []
                for items in lost:
                    for index, seed in items:
                        retry_counts[index] = retry_counts.get(index, 0) + 1
                        if retry_counts[index] > max_index_retries:
                            collector.add(
                                index,
                                (
                                    "err",
                                    FailedRun(
                                        index=index,
                                        seed=seed,
                                        error=(
                                            "worker process died "
                                            f"{retry_counts[index]} times "
                                            "running this index"
                                        ),
                                    ),
                                ),
                            )
                        else:
                            requeue.append((index, seed))
                            stats.reexecuted_indices += 1
                pending = deque(sorted(requeue) + list(pending))
                pool = ProcessPoolExecutor(max_workers=workers)
                # Relearn chunk size conservatively: one bad index per
                # chunk keeps blast radius and retry attribution tight.
                chunk_size = 1
    finally:
        pool.shutdown(wait=True)


__all__ = [
    "ExecutionReport",
    "ExecutionStats",
    "FailedRun",
    "MAX_CHUNK",
    "MAX_INDEX_RETRIES",
    "MonteCarloExecutionError",
    "TARGET_CHUNK_S",
    "execute_runs",
    "resolve_workers",
]
