"""Deterministic parallel Monte-Carlo execution.

Many-seed studies (E9/E11/E20) are embarrassingly parallel: each run is
one independent :class:`~repro.core.engine.Simulation` with its own
seed.  :class:`MonteCarloRunner` fans a picklable task out over a
``ProcessPoolExecutor`` and guarantees *bit-identical* results at any
worker count, because all randomness is fixed before any work is
dispatched:

1. Run seeds are derived in the parent through the hash-chained
   :meth:`repro.core.rng.RandomStreams.fork` lineage — run *i* always
   gets ``RandomStreams(base_seed).fork(i).seed``, a 128-bit integer
   that fully reconstructs its stream family in any process.
2. Workers never share state; each returns a structured
   :class:`RunResult` (sample, wall-clock, and the run's full
   :class:`~repro.obs.MetricsSnapshot`) and results are reassembled in
   index order regardless of completion order.  Snapshots merge
   order-independently, so a study's merged metrics are bit-identical
   at any worker count.

When ``workers=1`` the runner executes the same task list serially
in-process; where the platform cannot host a process pool (sandboxes
without semaphores, missing ``fork``/``spawn`` support) the pool falls
back to threads (see :class:`~repro.runtime.queue.WorkerPool`).  Either
way: same seeds, same ordering, same aggregate statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple, Union

from ..analysis.uptime import MonteCarloUptime
from ..core import units
from ..core.rng import RandomStreams
from ..faults import FaultPlan, InvariantAuditor
from ..obs import EMPTY_SNAPSHOT, MetricsSnapshot, merge_all, snapshot_json
from .queue import (
    FailedRun,
    MonteCarloExecutionError,
    execute_runs,
    resolve_workers,
)

#: A unit of Monte-Carlo work: ``task(index, seed)``.  Must be picklable
#: (a module-level function or a frozen dataclass like ScenarioTask) for
#: process-pool execution.  May return a full RunResult or a bare float
#: sample, which the runner wraps.
MonteCarloTask = Callable[[int, int], Union["RunResult", float]]


def derive_seeds(base_seed: int, runs: int) -> List[int]:
    """The canonical seed schedule: one fork per run index.

    Forks are hash-chained (see :meth:`RandomStreams.fork`), so distinct
    ``(base_seed, index)`` pairs yield distinct 128-bit run seeds, and
    the schedule is identical no matter where or when it is computed —
    the invariant that makes serial and parallel execution agree bit for
    bit.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    root = RandomStreams(seed=base_seed)
    return [root.fork(index).seed for index in range(runs)]


@dataclass(frozen=True)
class RunResult:
    """Structured outcome of one Monte-Carlo run.

    The run's telemetry travels as one picklable
    :class:`~repro.obs.MetricsSnapshot`; the historical per-field
    counters (``events_executed`` and friends) survive as derived
    read-only properties over it, so existing aggregation code and
    benchmarks read identical values from the new representation.
    ``wall_clock_s`` stays a plain field *outside* the snapshot: it is
    the one legitimately nondeterministic observation, and keeping it
    out of the snapshot is what lets metrics files be byte-identical
    across worker counts.
    """

    index: int
    seed: int
    #: The statistic being aggregated (weekly uptime for scenario tasks).
    sample: float
    wall_clock_s: float = 0.0
    #: The run's full metrics snapshot (empty for bare-float tasks).
    metrics: MetricsSnapshot = EMPTY_SNAPSHOT
    #: The executed fault event stream — ``(time, spec key, action,
    #: target names)`` tuples in execution order.  Crossing process
    #: boundaries intact is the point: the property suite asserts this
    #: stream is bit-identical at any worker count.
    fault_stream: Tuple[Tuple[float, str, str, Tuple[str, ...]], ...] = ()
    #: Full experiment result, present only when the task keeps it.
    detail: object = field(default=None, compare=False)

    # -- derived compatibility reads over the snapshot ------------------
    @property
    def events_executed(self) -> int:
        """Events the run's engine executed (from the snapshot)."""
        return int(self.metrics.counter_value("sim_events_executed_total"))

    @property
    def peak_pending_events(self) -> int:
        """Pending-queue high-water mark (from the snapshot)."""
        return int(self.metrics.gauge_value("sim_peak_pending_events"))

    @property
    def faults_injected(self) -> int:
        """Fault events scheduled (zero unless the task carried a plan)."""
        return int(self.metrics.counter_value("faults_injected_total"))

    @property
    def faults_fired(self) -> int:
        """Fault actions that actually executed."""
        return int(self.metrics.counter_value("faults_fired_total"))

    @property
    def invariant_violations(self) -> int:
        """Violations the run's auditor collected (0 when auditing was
        off *or* the run was clean; see the task's flag)."""
        return int(self.metrics.gauge_value("run_invariant_violations"))


@dataclass(frozen=True)
class MonteCarloStudy:
    """Everything a many-seed study produces, runs plus aggregate.

    ``runs`` holds the successful results in index order; ``failures``
    holds the per-run failure records (a poisoned seed no longer aborts
    the study — see :class:`~repro.runtime.queue.FailedRun`).
    """

    label: str
    base_seed: int
    workers: int
    runs: List[RunResult]
    uptime: MonteCarloUptime
    wall_clock_s: float
    failures: Tuple[FailedRun, ...] = ()

    @property
    def total_events(self) -> int:
        """Events executed across all runs."""
        return sum(r.events_executed for r in self.runs)

    @property
    def peak_pending_events(self) -> int:
        """Largest pending-queue high-water mark seen by any run."""
        return max((r.peak_pending_events for r in self.runs), default=0)

    @property
    def total_faults_injected(self) -> int:
        """Fault events scheduled across all runs."""
        return sum(r.faults_injected for r in self.runs)

    @property
    def total_faults_fired(self) -> int:
        """Fault actions that actually executed across all runs."""
        return sum(r.faults_fired for r in self.runs)

    @property
    def total_invariant_violations(self) -> int:
        """Invariant violations collected across all runs."""
        return sum(r.invariant_violations for r in self.runs)

    def merged_metrics(self) -> "MetricsSnapshot":
        """All runs' snapshots merged into one (order-independent)."""
        return merge_all(r.metrics for r in self.runs)

    def summary_lines(self) -> List[str]:
        """Headline rows for CLI / benchmark output."""
        agg = self.uptime
        lines = [
            f"{self.label}: {agg.runs} runs, {self.workers} worker(s), "
            f"{self.wall_clock_s:.2f} s wall-clock",
            f"uptime: mean {agg.mean:.4f} ± {agg.std:.4f}, "
            f"p5 {agg.p5:.4f}, median {agg.p50:.4f}, worst {agg.worst:.4f}",
            f"events: {self.total_events:,} executed, "
            f"peak pending queue {self.peak_pending_events:,}",
        ]
        if self.total_faults_injected or self.total_invariant_violations:
            lines.append(
                f"faults: {self.total_faults_fired} fired of "
                f"{self.total_faults_injected} injected; "
                f"invariant violations: {self.total_invariant_violations}"
            )
        if self.failures:
            first = self.failures[0]
            lines.append(
                f"failures: {len(self.failures)} run(s) failed; "
                f"first: run {first.index} (seed {first.seed}) — {first.error}"
            )
        return lines


def study_metrics_entries(study: MonteCarloStudy):
    """The canonical ``(meta, snapshot)`` metrics entries for a study.

    One line per run (``{"run": k, "seed": s}``) plus a merged line
    whose meta carries the run count, base seed, and — so a serialized
    study is self-describing even when seeds were poisoned — the
    **failure count** (:attr:`MonteCarloStudy.failures` used to be
    invisible in ``--metrics`` output; a served MC response must say
    "8 of 10 runs" on its face).  :func:`study_metrics_jsonl`, the one
    study serializer, writes exactly these entries.
    """
    per_run = [
        ({"run": run.index, "seed": run.seed}, run.metrics)
        for run in study.runs
    ]
    merged = (
        {
            "merged": True,
            "runs": len(study.runs),
            "base_seed": study.base_seed,
            "failures": len(study.failures),
        },
        study.merged_metrics(),
    )
    return per_run, merged


def study_metrics_jsonl(study: MonteCarloStudy) -> bytes:
    """A study's canonical metrics JSONL: the bytes ``mc --metrics``,
    ``mc-merge --metrics`` and ``/v1/mc`` all write."""
    per_run, merged = study_metrics_entries(study)
    return "".join(
        snapshot_json(snapshot, **meta) + "\n"
        for meta, snapshot in (*per_run, merged)
    ).encode("utf-8")


def run_metrics_jsonl(
    scenario: str, seed: int, snapshot: MetricsSnapshot
) -> bytes:
    """One run's canonical metrics JSONL line: the bytes ``run --metrics``
    and ``/v1/run`` both write."""
    line = snapshot_json(snapshot, scenario=scenario, seed=seed)
    return (line + "\n").encode("utf-8")


@dataclass(frozen=True)
class ScenarioTask:
    """Picklable task running one fifty-year scenario per seed.

    ``overrides`` is a tuple of ``(field, value)`` pairs applied to the
    scenario's :class:`~repro.experiment.fifty_year.FiftyYearConfig`
    (tuples, unlike dicts, keep the dataclass hashable/frozen).  With
    ``keep_result=True`` the full :class:`FiftyYearResult` rides along
    in :attr:`RunResult.detail` — it is small and picklable.

    ``faults`` is an optional :class:`~repro.faults.FaultPlan` installed
    before the run; ``audit=True`` attaches an
    :class:`~repro.faults.InvariantAuditor` in collect mode (one bad run
    should be *reported* in its RunResult, not abort a whole study) and
    sweeps once more at the horizon.  Both are plain frozen dataclass
    payloads, so the task pickles unchanged and every worker injects the
    identical plan.
    """

    scenario: str
    horizon: float = units.years(50.0)
    report_interval: Optional[float] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    keep_result: bool = False
    faults: Optional[FaultPlan] = None
    audit: bool = False
    audit_every: int = 2500

    def execute(self, seed: int):
        """Build, fault, audit and run one experiment.

        The one code path every surface runs a scenario through (``run``,
        ``mc``, shards and ``serve``).  Returns ``(experiment, result,
        controller, auditor)``; the controller is ``None`` without a plan
        and the auditor ``None`` without ``audit``.
        """
        # Imported lazily: repro.experiment itself builds on repro.runtime.
        from ..experiment.fifty_year import FiftyYearExperiment
        from ..experiment.scenarios import scenario_config

        config = scenario_config(
            self.scenario,
            seed,
            horizon=self.horizon,
            report_interval=self.report_interval,
            overrides=self.overrides,
        )
        experiment = FiftyYearExperiment(config)
        controller = None
        if self.faults is not None:
            controller = experiment.sim.install_faults(self.faults)
        auditor = None
        if self.audit:
            auditor = InvariantAuditor(
                experiment.sim, every=self.audit_every, strict=False
            ).install()
        result = experiment.run()
        if auditor is not None:
            auditor.check_now()
            experiment.sim.metrics.gauge(
                "run_invariant_violations", agg="sum"
            ).set(len(auditor.violations))
        return experiment, result, controller, auditor

    def __call__(self, index: int, seed: int) -> RunResult:
        experiment, result, controller, _auditor = self.execute(seed)
        # No self-timing here: ``_execute`` stamps wall_clock_s, so the
        # snapshot stays free of nondeterministic observations.
        return RunResult(
            index=index,
            seed=seed,
            sample=result.overall.uptime,
            metrics=experiment.sim.metrics.snapshot(),
            fault_stream=(
                controller.stream_tuple() if controller is not None else ()
            ),
            detail=result if self.keep_result else None,
        )


def _execute(task: MonteCarloTask, index: int, seed: int) -> RunResult:
    """Run one task invocation and normalize its return to a RunResult.

    Module-level so it pickles for the process pool.  Timing lives here
    — not in the tasks — so *every* run reports ``wall_clock_s``, bare
    floats included, and sim-layer code never touches the wall clock.
    A task that already stamped its own timing keeps it.
    """
    started = time.perf_counter()
    outcome = task(index, seed)
    elapsed = time.perf_counter() - started
    if isinstance(outcome, RunResult):
        if outcome.wall_clock_s == 0.0:
            outcome = replace(outcome, wall_clock_s=elapsed)
        return outcome
    return RunResult(
        index=index, seed=seed, sample=float(outcome), wall_clock_s=elapsed
    )


class MonteCarloRunner:
    """Fan a Monte-Carlo task over processes, deterministically.

    >>> from repro.runtime import MonteCarloRunner, ScenarioTask
    >>> from repro.core import units
    >>> task = ScenarioTask("owned-only", horizon=units.years(1.0))
    >>> study = MonteCarloRunner(task, runs=2, base_seed=7).run()
    >>> study.uptime.runs
    2
    """

    def __init__(
        self,
        task: MonteCarloTask,
        runs: int,
        base_seed: int = 100,
        workers: int = 1,
        label: Optional[str] = None,
    ) -> None:
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self.task = task
        self.runs = int(runs)
        self.base_seed = int(base_seed)
        # ``0`` means one worker per CPU; resolved once, here.
        self.workers = resolve_workers(workers)
        self.label = label or getattr(task, "scenario", type(task).__name__)

    def seeds(self) -> List[int]:
        """The exact per-run seed schedule this runner will use."""
        return derive_seeds(self.base_seed, self.runs)

    def run(self) -> MonteCarloStudy:
        """Execute all runs and aggregate; identical at any worker count.

        Execution rides the dynamic work-queue scheduler
        (:func:`~repro.runtime.queue.execute_runs`): per-run failures
        are collected into :attr:`MonteCarloStudy.failures` instead of
        aborting the study, and a broken worker pool re-executes only
        the indices that were in flight.
        """
        started = time.perf_counter()
        report = execute_runs(
            _execute,
            self.task,
            list(zip(range(self.runs), self.seeds())),
            workers=self.workers,
        )
        if not report.results:
            first = report.failures[0]
            raise MonteCarloExecutionError(
                f"all {self.runs} runs failed; first failure "
                f"(run {first.index}, seed {first.seed}): {first.error}"
            )
        uptime = MonteCarloUptime.from_samples(
            [r.sample for r in report.results]
        )
        return MonteCarloStudy(
            label=self.label,
            base_seed=self.base_seed,
            workers=self.workers,
            runs=report.results,
            uptime=uptime,
            wall_clock_s=time.perf_counter() - started,
            failures=tuple(report.failures),
        )
