"""Deterministic parallel and distributed Monte-Carlo execution.

One simulation run is single-threaded by design; a *study* of many
seeds is embarrassingly parallel.  Four modules compose:

* :mod:`repro.runtime.queue` — the one worker pool and the dynamic
  work-queue scheduler: one run per dispatch, per-run failure capture,
  broken-pool recovery that re-runs each lost index alone (so only the
  index that kills its worker is recorded as failed), and an in-order
  collector that streams results in index order.
* :mod:`repro.runtime.runner` — :class:`MonteCarloRunner`, the study
  front-end: seed schedules via the hash-chained
  :meth:`repro.core.rng.RandomStreams.fork` lineage, bit-identical
  aggregates at any worker count.
* :mod:`repro.runtime.shard` — on-disk shard artifacts (``.mcr``) and
  the multi-host merge: a study partitioned across hosts merges back
  byte-identical to the unsharded single-process run.
* :mod:`repro.runtime.sealed` — the sealed files shards and the serve
  cache write.
"""

from .queue import (
    ExecutionReport,
    ExecutionStats,
    FailedRun,
    MonteCarloExecutionError,
    execute_runs,
    resolve_workers,
)
from .runner import (
    MonteCarloRunner,
    MonteCarloStudy,
    MonteCarloTask,
    RunResult,
    ScenarioTask,
    derive_seeds,
    run_metrics_jsonl,
    study_metrics_entries,
    study_metrics_jsonl,
)
from .shard import (
    SHARD_FORMAT_VERSION,
    ShardError,
    ShardManifest,
    ShardRunReport,
    ShardWriter,
    iter_shard,
    load_shard,
    merge_shards,
    read_manifest,
    run_shard,
    shard_indices,
    task_fingerprint,
)

__all__ = [
    "ExecutionReport",
    "ExecutionStats",
    "FailedRun",
    "MonteCarloExecutionError",
    "MonteCarloRunner",
    "MonteCarloStudy",
    "MonteCarloTask",
    "RunResult",
    "SHARD_FORMAT_VERSION",
    "ScenarioTask",
    "ShardError",
    "ShardManifest",
    "ShardRunReport",
    "ShardWriter",
    "derive_seeds",
    "execute_runs",
    "iter_shard",
    "load_shard",
    "merge_shards",
    "read_manifest",
    "resolve_workers",
    "run_metrics_jsonl",
    "run_shard",
    "shard_indices",
    "study_metrics_entries",
    "study_metrics_jsonl",
    "task_fingerprint",
]
