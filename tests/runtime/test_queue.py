"""Tests for repro.runtime.queue — the dynamic work-queue scheduler."""

import errno
import os
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core import units
from repro.obs import snapshot_json
from repro.runtime import (
    MonteCarloExecutionError,
    MonteCarloRunner,
    ScenarioTask,
    execute_runs,
    resolve_workers,
    study_metrics_entries,
)
from repro.runtime import queue
from repro.runtime.runner import _execute, derive_seeds
from tests.conftest import needs_pool, refuse_processes


def _pairs(runs, base_seed=7):
    return list(zip(range(runs), derive_seeds(base_seed, runs)))


def _float_task(index: int, seed: int) -> float:
    """Module-level picklable task: deterministic in (index, seed)."""
    return (seed % 997) / 997.0


def _poisoned_task(index: int, seed: int) -> float:
    if index == 3:
        raise ValueError("poisoned seed")
    return float(index)


def _always_fails(index: int, seed: int) -> float:
    raise RuntimeError("nothing works")


@dataclass(frozen=True)
class _ExitOnce:
    """Kills its worker process the first time it sees ``kill_index``.

    A sentinel file records the first attempt, so the re-executed run
    succeeds — modeling a transient worker death (OOM kill, segfault).
    """

    sentinel_dir: str
    kill_index: int

    def __call__(self, index: int, seed: int) -> float:
        if index == self.kill_index:
            marker = Path(self.sentinel_dir) / f"{index}.tried"
            if not marker.exists():
                marker.write_text("tried")
                os._exit(13)
        return float(index)


@dataclass(frozen=True)
class _AlwaysExits:
    """Kills its worker process every time it sees ``kill_index``."""

    kill_index: int

    def __call__(self, index: int, seed: int) -> float:
        if index == self.kill_index:
            os._exit(13)
        return float(index)


@dataclass(frozen=True)
class _ExitsBesideInnocent:
    """Kills its worker at ``kill_index`` only once ``innocent`` runs too.

    Each attempt of ``innocent`` writes a "started" marker and then
    sleeps; the poisoned index waits (bounded) for a fresh marker,
    consumes it and exits.  So on the shared pool the innocent index is
    in flight at every death the poisoned index causes.
    """

    marker_dir: str
    kill_index: int
    innocent: int

    def __call__(self, index: int, seed: int) -> float:
        started = Path(self.marker_dir) / f"{self.innocent}.started"
        if index == self.innocent:
            started.write_text("started")
            time.sleep(0.5)
        elif index == self.kill_index:
            deadline = time.monotonic() + 2.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            started.unlink(missing_ok=True)
            os._exit(13)
        return float(index)


class TestResolveWorkers:
    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestSerialExecution:
    def test_results_in_index_order(self):
        report = execute_runs(_execute, _float_task, _pairs(6), workers=1)
        assert [r.index for r in report.results] == list(range(6))
        assert report.stats.mode == "serial"

    def test_one_result_resident_at_a_time(self):
        report = execute_runs(_execute, _float_task, _pairs(50), workers=1)
        assert report.stats.peak_resident_results == 1

    def test_streaming_consume_in_order(self):
        seen = []
        report = execute_runs(
            _execute, _float_task, _pairs(8), workers=1, consume=seen.append
        )
        assert report.results == []
        assert [r.index for r in seen] == list(range(8))


class TestFailureCapture:
    """Satellite: one poisoned run must not abort the study."""

    def test_serial_poisoned_run_is_recorded(self):
        report = execute_runs(_execute, _poisoned_task, _pairs(6), workers=1)
        assert [r.index for r in report.results] == [0, 1, 2, 4, 5]
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert failed.index == 3
        assert "ValueError: poisoned seed" in failed.error
        assert "poisoned seed" in failed.traceback

    @needs_pool
    def test_pool_poisoned_run_is_recorded(self):
        report = execute_runs(_execute, _poisoned_task, _pairs(6), workers=2)
        assert [r.index for r in report.results] == [0, 1, 2, 4, 5]
        assert [f.index for f in report.failures] == [3]

    def test_study_surfaces_failures(self):
        study = MonteCarloRunner(
            _poisoned_task, runs=6, base_seed=7, workers=1
        ).run()
        assert len(study.runs) == 5
        assert len(study.failures) == 1
        assert study.failures[0].index == 3
        assert study.uptime.runs == 5
        text = "\n".join(study.summary_lines())
        assert "1 run(s) failed" in text
        assert "ValueError" in text

    def test_all_failed_raises(self):
        with pytest.raises(MonteCarloExecutionError) as excinfo:
            MonteCarloRunner(_always_fails, runs=3, base_seed=7).run()
        assert "all 3 runs failed" in str(excinfo.value)
        assert "RuntimeError" in str(excinfo.value)

    def test_failure_seed_matches_schedule(self):
        report = execute_runs(_execute, _poisoned_task, _pairs(6), workers=1)
        assert report.failures[0].seed == derive_seeds(7, 6)[3]


class TestPoolExecution:
    @needs_pool
    def test_matches_serial(self):
        serial = execute_runs(_execute, _float_task, _pairs(16), workers=1)
        pooled = execute_runs(_execute, _float_task, _pairs(16), workers=2)
        assert [r.sample for r in pooled.results] == [
            r.sample for r in serial.results
        ]
        assert pooled.stats.mode == "pool"

    @needs_pool
    def test_streaming_bounded_window(self):
        seen = []
        report = execute_runs(
            _execute, _float_task, _pairs(200), workers=2, consume=seen.append
        )
        assert [r.index for r in seen] == list(range(200))
        # The reorder window holds only the runs that finished ahead of
        # the lowest index still running.
        assert report.stats.peak_resident_results < 100


class TestBrokenPoolRecovery:
    """A dead worker re-runs each lost index alone; only a run that dies
    alone is recorded as failed."""

    @needs_pool
    def test_transient_worker_death_recovers_all_runs(self, tmp_path):
        task = _ExitOnce(sentinel_dir=str(tmp_path), kill_index=4)
        report = execute_runs(_execute, task, _pairs(8), workers=2)
        assert [r.index for r in report.results] == list(range(8))
        assert report.failures == []
        assert report.stats.pool_rebuilds >= 1
        assert report.stats.reexecuted_indices >= 1

    @needs_pool
    def test_persistent_worker_death_fails_only_that_index(self):
        task = _AlwaysExits(kill_index=2)
        report = execute_runs(_execute, task, _pairs(6), workers=2)
        assert [f.index for f in report.failures] == [2]
        assert "worker process died" in report.failures[0].error
        assert [r.index for r in report.results] == [0, 1, 3, 4, 5]

    @needs_pool
    def test_co_flight_index_is_never_blamed(self, tmp_path):
        task = _ExitsBesideInnocent(str(tmp_path), kill_index=0, innocent=1)
        report = execute_runs(_execute, task, _pairs(6), workers=2)
        assert [f.index for f in report.failures] == [0]
        assert [r.index for r in report.results] == [1, 2, 3, 4, 5]


class TestPoolFailuresAreNarrow:
    """Only a pool that cannot start falls back; other errors propagate."""

    @needs_pool
    def test_consume_oserror_propagates(self):
        seen = []

        def consume(result):
            if result.index == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            seen.append(result.index)

        with pytest.raises(OSError, match="No space left"):
            execute_runs(_execute, _float_task, _pairs(8), workers=2, consume=consume)
        assert seen == [0, 1, 2]

    def test_unstartable_pool_runs_on_threads_identically(self, monkeypatch):
        task = ScenarioTask(
            "owned-only", horizon=units.years(1.0), report_interval=units.days(7.0)
        )

        def study_jsonl(workers):
            study = MonteCarloRunner(task, runs=4, base_seed=7, workers=workers).run()
            per_run, merged = study_metrics_entries(study)
            return [snapshot_json(s, **meta) for meta, s in (*per_run, merged)]

        serial = study_jsonl(1)
        monkeypatch.setattr(queue, "ProcessPoolExecutor", refuse_processes)
        with pytest.warns(RuntimeWarning, match="2 worker thread") as caught:
            assert study_jsonl(2) == serial
        assert len(caught) == 1
        with pytest.warns(RuntimeWarning):
            report = execute_runs(_execute, _float_task, _pairs(6), workers=2)
        assert report.stats.mode == "thread"
