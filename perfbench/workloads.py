"""The four benchmark workloads.

Each workload turns the benchmark's ``--seed`` into its inputs, sets the
system up, runs timed units of work until the run's time is spent,
checks every unit's output against the digests in ``pinned.json``, and
returns an :class:`Outcome`.  Times are normalised by the host's speed
as probed around each stretch of work (``pace.py``).  A unit whose
output is wrong counts as failed and its timings are dropped, so doing
less work cannot read as a speed-up.

Why each workload exists is in ``README.md``; the short form is in each
class docstring.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Generator, List, Optional

import layers
from pace import Pacer, ProbedStretches
from spans import LayerStats, Tracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
PINNED = HERE / "pinned.json"
CHAOS_PLAN = REPO / "examples" / "plans" / "ten_fault_chaos.json"

#: Set-ups timed before the units, after one untimed set-up that pays
#: for imports: at least ``MIN_SETUPS``, then more until this much raw
#: set-up time is measured.  A fifty-year build takes milliseconds, so
#: the budget is sized in seconds to give its median over a hundred
#: samples.  The median over these and every unit's own set-up is
#: reported.
SETUP_BUDGET_S = 1.0
MIN_SETUPS = 3

#: Stretches per Monte-Carlo run in the pool workers: a run takes a
#: second or two, so each stretch lasts under a tenth of a second.
RUN_STRETCHES = 20


def load_pins() -> dict:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


def pick(pool: List[int], seed: int) -> int:
    """The pinned input a benchmark seed selects."""
    return pool[seed % len(pool)]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: List[float]) -> float:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond
    it; the maximum when there are too few samples for any."""
    n = len(values)
    for q in (99.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10.0:
            return percentile(values, q)
    return max(values)


def run_in_stretches(sim, horizon: float, stretches: int) -> Generator:
    """Advance ``sim`` to ``horizon`` in equal steps, yielding after all
    but the last.  ``run_until`` resumes where it stopped, so the events
    executed, and their order, are those of one call."""
    for k in range(1, stretches):
        sim.run_until(horizon * k / stretches)
        yield


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Outcome:
    """What one benchmark run reports."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    #: Facts about how the run was made (workers, connections, samples).
    facts: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class Unit:
    setup_s: float
    wall_s: float
    output: object
    problems: List[str]
    work: float = 0.0
    #: ``wall_s`` before normalisation.
    raw_wall_s: float = 0.0


class SimWorkload:
    """A batch workload: set up, run, check; repeated until time is up.

    Subclasses supply :meth:`inputs`, :meth:`setup`, :meth:`execute`,
    :meth:`pinned` and :meth:`work`.  ``pool_field`` names the input the
    benchmark seed picks from the pinned pool.  ``execute`` is a
    generator whose ``yield`` statements split the run into stretches,
    so that host speed is probed between them.
    """

    name = ""
    pool_field = "sim_seed"

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.pins = load_pins()[self.name]

    # -- hooks ----------------------------------------------------------
    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict) -> object:
        raise NotImplementedError

    def execute(self, state: object) -> Generator:
        raise NotImplementedError

    def pinned(self, inputs: dict, output: object) -> dict:
        """The output facts ``pinned.json`` holds for these inputs."""
        raise NotImplementedError

    def check(self, inputs: dict, output: object) -> List[str]:
        expected = self.pins["outputs"][str(inputs[self.pool_field])]
        found = self.pinned(inputs, output)
        return [
            f"{key} {found.get(key)!r} != pinned {expected[key]!r}"
            for key in sorted(expected)
            if found.get(key) != expected[key]
        ]

    def digest(self, output: object, inputs: dict) -> str:
        """One string that changes whenever the checked output does."""
        return json.dumps(self.pinned(inputs, output), sort_keys=True)

    def work(self, output: object) -> float:
        raise NotImplementedError

    def trace_extra(self, inputs: dict, untraced: Unit, traced: Unit) -> Dict[str, float]:
        return {}

    def facts(self) -> Dict[str, object]:
        return {}

    def paced(self) -> contextlib.AbstractContextManager:
        """What is installed while a paced run measures; nothing here."""
        return contextlib.nullcontext()

    # -- the run --------------------------------------------------------
    def unit(self, inputs: dict, pacer: Optional[Pacer] = None) -> Unit:
        """Set up and execute once; the caller checks the output.  With
        an enabled pacer the times are normalised, else raw."""
        pacer = pacer or Pacer(enabled=False)
        started = time.perf_counter()
        state = self.setup(inputs)
        setup_s = pacer.stretch(time.perf_counter() - started)
        wall_s, raw_wall_s, output = pacer.run(self.execute(state))
        return Unit(setup_s, wall_s, output, [], raw_wall_s=raw_wall_s)

    def checked_unit(self, inputs: dict, pacer: Optional[Pacer] = None) -> Unit:
        gc.collect()
        unit = self.unit(inputs, pacer)
        unit.problems = self.check(inputs, unit.output)
        return unit

    def measure(self, seed: int, seconds: float) -> Outcome:
        """Time set-ups, then run units while the next one is expected
        to end within ``seconds`` (always at least one)."""
        inputs = self.inputs(seed)
        self.setup(inputs)
        with self.paced():
            pacer = Pacer()
            setups: List[float] = []
            raw_setup_s = 0.0
            while len(setups) < MIN_SETUPS or raw_setup_s < SETUP_BUDGET_S:
                gc.collect()
                started = time.perf_counter()
                self.setup(inputs)
                elapsed = time.perf_counter() - started
                raw_setup_s += elapsed
                setups.append(pacer.stretch(elapsed))
            units: List[Unit] = []
            spent: List[float] = []
            started = time.perf_counter()
            while not units or time.perf_counter() - started + statistics.median(
                spent
            ) <= seconds:
                begun = time.perf_counter()
                unit = self.checked_unit(inputs, pacer)
                spent.append(time.perf_counter() - begun)
                # Keep the figures, drop the output: peak RSS is one unit's.
                unit.work = self.work(unit.output)
                unit.output = None
                units.append(unit)
        good = [u for u in units if not u.problems]
        problems = [p for u in units for p in u.problems]
        facts = {
            "units": len(units), "setups": len(setups), "inputs": inputs,
            "host_speed": round(pacer.host_speed(), 4),
            "raw_wall_s": [round(u.raw_wall_s, 4) for u in units],
            **self.facts(),
        }
        if not good:
            return Outcome({}, len(units), len(units), False, facts, problems)
        # A batch workload's operation is the whole run a user waits for.
        latencies = [u.wall_s * 1e3 for u in good]
        metrics = {
            "setup_s": statistics.median(setups + [u.setup_s for u in good]),
            "wall_s": statistics.median(u.wall_s for u in good),
            "work_per_s": statistics.median(u.work / u.wall_s for u in good),
            "p50_ms": statistics.median(latencies),
            # Too few runs for a percentile with ten beyond it, and a
            # rule that picked one by sample count would change meaning
            # with the number of units: the slowest run.
            "tail_ms": max(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        facts["latency_samples"] = len(latencies)
        return Outcome(
            metrics, len(units), len(units) - len(good), not problems, facts, problems
        )

    def trace(self, seed: int) -> Outcome:
        """One untraced and one traced unit on the same inputs."""
        inputs = self.inputs(seed)
        untraced = self.checked_unit(inputs)
        tracer = Tracer()
        tracer.follow_forks(self.child_dir())
        layers.install_sim_layers(tracer)
        try:
            gc.collect()
            tracer.start_window()
            traced = self.unit(inputs)
            window_s, covered_s = tracer.window()
        finally:
            tracer.restore()
        traced.problems = self.check(inputs, traced.output)
        # Parent and pool-worker spans summed per layer.
        table: Dict[str, LayerStats] = {}
        for source in (tracer.layers, tracer.collect_children()):
            for layer, stats in source.items():
                table.setdefault(layer, LayerStats()).merge(stats.to_dict())
        problems = untraced.problems + traced.problems
        if self.digest(untraced.output, inputs) != self.digest(traced.output, inputs):
            problems.append("traced output differs from untraced output")
        traced_wall = traced.setup_s + traced.wall_s
        extra = {
            "trace.overhead_ratio": traced_wall / (untraced.setup_s + untraced.wall_s),
            "trace.unattributed_share": (window_s - covered_s) / window_s,
            **self.trace_extra(inputs, untraced, traced),
        }
        metrics = layers.layer_metrics(table, extra)
        facts = {
            "inputs": inputs,
            "traced_wall_s": traced_wall,
            "trace_window_s": window_s,
            "parent_self_s": sum(s.self_s for s in tracer.layers.values()),
            **self.facts(),
        }
        return Outcome(metrics, 2, len([u for u in (untraced, traced) if u.problems]),
                       not problems, facts, problems)

    def child_dir(self) -> Optional[str]:
        return None


class FiftyYear(SimWorkload):
    """One as-designed seed over 50 years on the per-entity engine: the
    kernel, device duty cycle, radio, energy and Helium layers work;
    cohort, runtime and serve do nothing."""

    name = "fifty-year"
    scenario = "as-designed"
    #: One per simulated year, a few tenths of a second each.
    stretches = 50

    def inputs(self, seed: int) -> dict:
        return {"scenario": self.scenario, "sim_seed": pick(self.pins["pool"], seed)}

    def setup(self, inputs: dict):
        from repro.core import units
        from repro.experiment.fifty_year import FiftyYearExperiment
        from repro.experiment.scenarios import scenario_config

        config = scenario_config(
            inputs["scenario"], inputs["sim_seed"], horizon=units.years(50.0)
        )
        experiment = FiftyYearExperiment(config)
        experiment.build()
        return experiment

    def execute(self, experiment):
        yield from run_in_stretches(experiment.sim, experiment.config.horizon, self.stretches)
        experiment.run()
        return experiment.sim.metrics.snapshot()

    def line(self, inputs: dict, snapshot) -> str:
        from repro.obs import export

        return export.snapshot_json(
            snapshot, scenario=inputs["scenario"], seed=inputs["sim_seed"]
        )

    def pinned(self, inputs: dict, snapshot) -> dict:
        return {
            "events_executed": snapshot.counter_value("sim_events_executed_total"),
            "snapshot_sha256": sha256_text(self.line(inputs, snapshot)),
        }

    def work(self, snapshot) -> float:
        return snapshot.counter_value("net_reports_attempted_total")

    def trace_extra(self, inputs: dict, untraced: Unit, traced: Unit) -> Dict[str, float]:
        snapshot = untraced.output
        return {
            "faults.fired": float(snapshot.counter_value("faults_fired_total")),
            "obs.series": float(_series(snapshot)),
            "obs.bytes": float(len(self.line(inputs, snapshot).encode("utf-8"))),
        }


def _series(snapshot) -> int:
    return len(snapshot.counters) + len(snapshot.gauges) + len(snapshot.histograms)


class CityCohort(SimWorkload):
    """The LA streetlight fleet on the cohort engine: one event services
    a whole batch, so the per-member loop, radio, forwarding and the
    gateway index work and the kernel does almost nothing."""

    name = "city-cohort"
    #: One per two simulated days, about a fifth of a second each.
    stretches = 14

    def inputs(self, seed: int) -> dict:
        return {
            "sim_seed": pick(self.pins["pool"], seed),
            "device_count": self.pins["device_count"],
            "horizon_days": self.pins["horizon_days"],
        }

    def setup(self, inputs: dict):
        from repro.city.scenario import CityScaleConfig, CityScenario
        from repro.core import units

        return CityScenario(
            CityScaleConfig(
                seed=inputs["sim_seed"],
                device_count=inputs["device_count"],
                horizon=units.days(inputs["horizon_days"]),
                engine="cohort",
            )
        )

    def execute(self, city):
        yield from run_in_stretches(city.sim, city.config.horizon, self.stretches)
        summary = city.run()
        return {"summary": json.loads(json.dumps(summary)), "registry": city.sim.metrics}

    def pinned(self, inputs: dict, output) -> dict:
        return output["summary"]

    def work(self, output) -> float:
        return output["summary"]["attempts"]

    def trace_extra(self, inputs: dict, untraced: Unit, traced: Unit) -> Dict[str, float]:
        from repro.obs import export

        snapshot = untraced.output["registry"].snapshot()
        return {
            "obs.series": float(_series(snapshot)),
            "obs.bytes": float(len(export.snapshot_json(snapshot).encode("utf-8"))),
        }


def _stretched_run(run, experiment) -> Generator:
    """A study run's event loop in probed stretches, then the rest of
    ``FiftyYearExperiment.run``.  A study hands ``run`` an experiment
    that is not built yet; it is built first, as ``run`` would."""
    if not experiment._built:
        experiment.build()
    yield from run_in_stretches(experiment.sim, experiment.config.horizon, RUN_STRETCHES)
    return run(experiment)


class McChaos(SimWorkload):
    """A faulted, audited Monte-Carlo study run as two shards and merged:
    the only workload that drives the work queue, shard files, fault
    injection, the auditor and telemetry merge/export at scale."""

    name = "mc-chaos"
    pool_field = "base_seed"

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.workers = min(2, os.cpu_count() or 1)
        self.runs: Optional[ProbedStretches] = None
        self.probed_runs = 0

    def facts(self) -> Dict[str, object]:
        return {"workers": self.workers, "shards": 2, "probed_runs": self.probed_runs}

    @contextlib.contextmanager
    def paced(self):
        """Probe host speed inside the pool workers, between stretches of
        each run's event loop: the parent mostly waits while they work."""
        from repro.experiment.fifty_year import FiftyYearExperiment

        self.runs = ProbedStretches(
            FiftyYearExperiment, "run", _stretched_run, os.path.join(self.workdir, "probes")
        )
        self.runs.install()
        try:
            yield
        finally:
            self.runs.restore()
            self.runs = None

    def worker_time(self):
        """How to normalise the shard just run (``None``: not paced)."""
        if self.runs is None:
            return None
        normalise = self.runs.read(self.workers)
        self.probed_runs = self.runs.calls
        return normalise

    def inputs(self, seed: int) -> dict:
        return {
            "base_seed": pick(self.pins["pool"], seed),
            "runs": self.pins["runs_per_study"],
            "report_days": self.pins["report_days"],
        }

    def task(self, inputs: dict):
        from repro.core import units
        from repro.faults import load_plan
        from repro.runtime import ScenarioTask

        return ScenarioTask(
            "as-designed",
            horizon=units.years(50.0),
            report_interval=units.days(inputs["report_days"]),
            faults=load_plan(str(CHAOS_PLAN)),
            audit=True,
        )

    def setup(self, inputs: dict):
        """Load the plan and build one faulted, audited experiment — the
        set-up every run of the study pays before its event loop."""
        from repro.experiment.fifty_year import FiftyYearExperiment
        from repro.experiment.scenarios import scenario_config
        from repro.faults import InvariantAuditor

        task = self.task(inputs)
        config = scenario_config(
            task.scenario, 0, horizon=task.horizon, report_interval=task.report_interval
        )
        experiment = FiftyYearExperiment(config)
        experiment.sim.install_faults(task.faults)
        InvariantAuditor(experiment.sim, every=task.audit_every, strict=False).install()
        experiment.build()
        return task, inputs

    def execute(self, state):
        from repro.obs import export
        from repro.runtime import runner, shard

        task, inputs = state
        paths = [os.path.join(self.workdir, f"shard-{i}.mcr") for i in range(2)]
        reports = []
        for i, path in enumerate(paths):
            reports.append(
                shard.run_shard(
                    task,
                    runs=inputs["runs"],
                    base_seed=inputs["base_seed"],
                    shard=i,
                    nshards=2,
                    out_path=path,
                    workers=self.workers,
                )
            )
            yield self.worker_time()
        study = shard.merge_shards(paths)
        yield
        per_run, merged = runner.study_metrics_entries(study)
        lines = []
        for meta, snapshot in (*per_run, merged):
            lines.append(export.snapshot_json(snapshot, **meta) + "\n")
            yield
        jsonl = "".join(lines)
        with open(os.path.join(self.workdir, "study.jsonl"), "w", encoding="utf-8") as out:
            out.write(jsonl)
        return {
            "study": study,
            "jsonl": jsonl,
            "reports": reports,
            "shard_bytes": sum(os.path.getsize(p) for p in paths),
        }

    def pinned(self, inputs: dict, output) -> dict:
        study = output["study"]
        return {
            "jsonl_sha256": sha256_text(output["jsonl"]),
            "faults_fired": study.total_faults_fired,
            "violations": study.total_invariant_violations,
            "failures": len(study.failures),
        }

    def work(self, output) -> float:
        return len(output["study"].runs)

    def trace_extra(self, inputs: dict, untraced: Unit, traced: Unit) -> Dict[str, float]:
        output = untraced.output
        study = output["study"]
        runs = len(study.runs)
        busy_s = sum(run.wall_clock_s for run in study.runs)
        shards_s = sum(report.wall_clock_s for report in output["reports"])
        return {
            "faults.fired": float(study.total_faults_fired),
            "obs.series": sum(_series(run.metrics) for run in study.runs) / runs,
            "obs.bytes": float(len(output["jsonl"].encode("utf-8"))),
            "runtime.queue.busy_share": busy_s / (untraced.wall_s * self.workers),
            "runtime.queue.dispatch_overhead_s": max(
                0.0, shards_s * self.workers - busy_s
            ) / runs,
            "runtime.queue.chunks": float(
                sum(report.stats.dispatched_chunks for report in output["reports"])
            ),
            "runtime.shard.bytes": float(output["shard_bytes"]),
        }

    def child_dir(self) -> Optional[str]:
        path = os.path.join(self.workdir, "spans")
        os.makedirs(path, exist_ok=True)
        return path


SIM_WORKLOADS = {cls.name: cls for cls in (FiftyYear, CityCohort, McChaos)}
