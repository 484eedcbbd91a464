"""Tracing must not perturb the program.

* Every wrapped attribute is restored to the identical object.
* Traced and untraced runs produce identical outputs, on the per-entity
  engine, the cohort engine, a two-worker Monte-Carlo study and the
  serve path.
* Layer self times plus unattributed time add up to the traced wall
  time, so the per-layer breakdown accounts for the whole run.

Pacing must not perturb it either: a run split into probed stretches
gives the output of one uninterrupted run, and the probes reach the
Monte-Carlo pool workers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import pace
from spans import Tracer
from workloads import run_in_stretches, tail

SUM_TOLERANCE = 0.03


def _traced(tracer: Tracer, install, fn):
    install(tracer)
    try:
        tracer.start_window()
        started = time.perf_counter()
        result = fn()
        wall_s = time.perf_counter() - started
        window_s, covered_s = tracer.window()
    finally:
        tracer.restore()
    return result, wall_s, window_s, covered_s


def _assert_accounts_for_wall(tracer: Tracer, wall_s: float, window_s: float, covered_s: float):
    self_s = sum(stats.self_s for stats in tracer.layers.values())
    assert self_s == pytest.approx(covered_s, rel=1e-9)
    assert self_s + (window_s - covered_s) == pytest.approx(wall_s, rel=SUM_TOLERANCE)


def test_restore_leaves_every_attribute_identical():
    tracer = Tracer()
    layers.install_sim_layers(tracer)
    layers.install_serve_layers(tracer)
    patched = tracer.patched()
    assert len(patched) > 30
    for owner, name, original in patched:
        assert vars(owner)[name] is not original
    tracer.restore()
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert tracer.patched() == []


def _fifty_year_line():
    from repro.core import units
    from repro.experiment.fifty_year import FiftyYearExperiment
    from repro.experiment.scenarios import scenario_config
    from repro.obs import snapshot_json

    config = scenario_config(
        "as-designed", 7, horizon=units.years(3.0), report_interval=units.days(2.0)
    )
    experiment = FiftyYearExperiment(config)
    experiment.run()
    return snapshot_json(experiment.sim.metrics.snapshot())


def test_per_entity_run_is_unperturbed_and_accounted():
    plain = _fifty_year_line()
    tracer = Tracer()
    traced, wall_s, window_s, covered_s = _traced(
        tracer, layers.install_sim_layers, _fifty_year_line
    )
    assert traced == plain
    for layer in ("core.events", "core.engine", "net.device", "radio.link", "energy"):
        assert tracer.layers[layer].self_s > 0.0
    assert tracer.layers["net.device"].calls > 0
    _assert_accounts_for_wall(tracer, wall_s, window_s, covered_s)


def _city_summary():
    from repro.city.scenario import CityScaleConfig, CityScenario
    from repro.core import units

    return CityScenario(
        CityScaleConfig(seed=3, device_count=2000, horizon=units.days(7.0))
    ).run()


def test_cohort_run_is_unperturbed_and_accounted():
    plain = _city_summary()
    tracer = Tracer()
    traced, wall_s, window_s, covered_s = _traced(
        tracer, layers.install_sim_layers, _city_summary
    )
    assert traced == plain
    metrics = layers.layer_metrics(tracer.layers)
    assert metrics["net.cohort.calls"] > 0
    assert metrics["net.cohort.members_per_call"] > 1.0
    assert metrics["net.device.calls"] == 0
    _assert_accounts_for_wall(tracer, wall_s, window_s, covered_s)


def _study_jsonl(tmp_path, tag: str):
    from repro.core import units
    from repro.obs import snapshot_json
    from repro.runtime import ScenarioTask, runner, shard

    task = ScenarioTask(
        "owned-only", horizon=units.years(1.0), report_interval=units.days(7.0), audit=True
    )
    paths = [str(tmp_path / f"{tag}-{i}.mcr") for i in range(2)]
    for i, path in enumerate(paths):
        shard.run_shard(task, runs=4, base_seed=5, shard=i, nshards=2, out_path=path, workers=2)
    study = shard.merge_shards(paths)
    per_run, merged = runner.study_metrics_entries(study)
    return "".join(snapshot_json(s, **meta) + "\n" for meta, s in (*per_run, merged))


def test_pool_workers_report_their_spans(tmp_path):
    plain = _study_jsonl(tmp_path, "plain")
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    tracer = Tracer()
    tracer.follow_forks(str(spans_dir))
    traced, wall_s, window_s, covered_s = _traced(
        tracer, layers.install_sim_layers, lambda: _study_jsonl(tmp_path, "traced")
    )
    assert traced == plain
    children = tracer.collect_children()
    assert children["runtime.worker"].calls >= 2
    assert children["core.engine"].self_s > 0.0
    assert children["faults.auditor"].calls > 0
    assert tracer.layers["runtime.shard.merge"].calls == 1
    _assert_accounts_for_wall(tracer, wall_s, window_s, covered_s)


def fake_compute(request) -> bytes:
    return f"{request.scenario}:{request.seed}\n".encode()


def _serve_bodies():
    from repro.serve import ResponseCache, ScenarioService, parse_request

    async def go():
        service = ScenarioService(
            workers=1,
            cache=ResponseCache(),
            compute=fake_compute,
            executor=ThreadPoolExecutor(max_workers=1),
        )
        bodies = []
        for seed in (1, 2, 1, 1, 2):
            request = parse_request({"scenario": "owned-only", "seed": seed}, "run")
            response = await service.handle(request)
            bodies.append((response.status, response.cache, response.body))
        service._executor.shutdown(wait=True)
        return bodies

    return asyncio.run(go())


def test_serve_path_is_unperturbed():
    plain = _serve_bodies()
    tracer = Tracer()
    traced, _, _, _ = _traced(tracer, layers.install_serve_layers, _serve_bodies)
    assert traced == plain
    metrics = layers.layer_metrics(tracer.layers)
    assert metrics["serve.cache.calls"] == 7  # five gets, two puts
    assert metrics["serve.cache.hit_ratio"] == pytest.approx(3 / 5)
    assert metrics["serve.request.calls"] == 5
    assert metrics["serve.service.pool_wait_s"] > 0.0


def test_coroutine_steps_exclude_awaited_idle_time():
    tracer = Tracer()

    async def napper():
        await asyncio.sleep(0.05)
        return "done"

    class Holder:
        pass

    Holder.nap = staticmethod(napper)
    tracer.wrap_method(Holder, "nap", "toy", mode="steps")
    tracer.start_window()
    assert asyncio.run(Holder.nap()) == "done"
    tracer.restore()
    assert tracer.layers["toy"].calls == 1
    assert tracer.layers["toy"].self_s < 0.01


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1, 1001))) == 990  # p99: ten samples above it
    assert tail(list(range(1, 101))) == 90  # p90
    assert tail([5.0, 1.0, 3.0]) == 5.0  # too few: the maximum


def test_stretched_runs_equal_one_call():
    from repro.city.scenario import CityScaleConfig, CityScenario
    from repro.core import units
    from repro.experiment.fifty_year import FiftyYearExperiment
    from repro.experiment.scenarios import scenario_config
    from repro.obs import snapshot_json

    def fifty_year(stretches):
        experiment = FiftyYearExperiment(
            scenario_config("as-designed", 7, horizon=units.years(3.0))
        )
        experiment.build()
        for _ in run_in_stretches(experiment.sim, experiment.config.horizon, stretches):
            pass
        experiment.run()
        return snapshot_json(experiment.sim.metrics.snapshot())

    def city(stretches):
        scenario = CityScenario(
            CityScaleConfig(seed=3, device_count=500, horizon=units.days(7.0), engine="cohort")
        )
        for _ in run_in_stretches(scenario.sim, scenario.config.horizon, stretches):
            pass
        return scenario.run()

    assert fifty_year(7) == fifty_year(1)
    assert city(5) == city(1)


def test_pacer_scales_by_the_probed_speed(monkeypatch):
    monkeypatch.setattr(pace, "probe_s", lambda: 2.0 * pace.REFERENCE_S)
    pacer = pace.Pacer()

    def steps():
        time.sleep(0.02)
        yield
        time.sleep(0.02)
        yield lambda raw_s: 7.0  # measured in other processes
        return "out"

    normalised_s, raw_s, result = pacer.run(steps())
    assert result == "out"
    assert raw_s >= 0.04
    assert 7.0 < normalised_s < 7.0 + raw_s
    assert pacer.stretch(1.0) == pytest.approx(0.5)
    assert len(pacer.probes) == 5
    assert pace.Pacer(enabled=False).stretch(1.0) == 1.0


def test_probed_stretches_reach_pool_workers(tmp_path):
    from repro.experiment.fifty_year import FiftyYearExperiment

    from workloads import _stretched_run as stretched

    plain = _study_jsonl(tmp_path, "plain")
    original = vars(FiftyYearExperiment)["run"]
    runs = pace.ProbedStretches(
        FiftyYearExperiment, "run", stretched, str(tmp_path / "probes")
    )
    runs.install()
    try:
        probed = _study_jsonl(tmp_path, "probed")
    finally:
        runs.restore()
    assert vars(FiftyYearExperiment)["run"] is original
    assert probed == plain
    normalise = runs.read(workers=2)
    assert runs.calls == 4  # the study's four runs, two per shard
    assert normalise(10.0) > 0.0
    assert runs.read(workers=2) is None  # read once, then gone
