"""Tests for repro.core.engine."""

import math

import pytest

from repro.core import Simulation, SimulationError, units


class TestScheduling:
    def test_call_at_runs_at_time(self, sim):
        times = []
        sim.call_at(10.0, lambda: times.append(sim.now))
        sim.run_until(20.0)
        assert times == [10.0]

    def test_call_in_is_relative(self, sim):
        sim.run_until(5.0)
        times = []
        sim.call_in(3.0, lambda: times.append(sim.now))
        sim.run_until(20.0)
        assert times == [8.0]

    def test_past_scheduling_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_in(-1.0, lambda: None)

    def test_clock_lands_on_end_time(self, sim):
        sim.call_at(3.0, lambda: None)
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_events_beyond_end_stay_queued(self, sim):
        hits = []
        sim.call_at(50.0, lambda: hits.append(1))
        sim.run_until(10.0)
        assert hits == []
        sim.run_until(60.0)
        assert hits == [1]

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_run_until_nan_rejected(self, sim):
        hits = []
        sim.call_at(10.0, lambda: hits.append(10.0))
        sim.call_at(1e12, lambda: hits.append(1e12))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run_until(math.nan)
        # Nothing ran and the clock did not move.
        assert hits == []
        assert sim.now == 0.0
        assert len(sim.events) == 2

    def test_nested_scheduling_inside_event(self, sim):
        times = []

        def first():
            sim.call_in(1.0, lambda: times.append(sim.now))

        sim.call_at(2.0, first)
        sim.run_until(10.0)
        assert times == [3.0]

    def test_stop_halts_run(self, sim):
        hits = []
        sim.call_at(1.0, lambda: (hits.append(1), sim.stop()))
        sim.call_at(2.0, lambda: hits.append(2))
        sim.run_until(10.0)
        assert hits == [1]
        assert sim.now == 1.0  # clock frozen at the stop point

    def test_max_events_guard(self, sim):
        def loop():
            sim.call_in(0.0, loop)

        sim.call_at(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run_until(1.0, max_events=100)

    def test_executed_events_counter(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda: None)
        sim.run_until(10.0)
        assert sim.metrics.snapshot().counter_value("sim_events_executed_total") == 3


class TestPeriodicTask:
    def test_fires_on_interval(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_custom_start(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start=5.0)
        sim.run_until(30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_until_bound(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), until=25.0)
        sim.run_until(100.0)
        assert times == [10.0, 20.0]

    def test_stop_cancels_future_firings(self, sim):
        times = []
        task = sim.every(10.0, lambda: times.append(sim.now))
        sim.call_at(25.0, task.stop)
        sim.run_until(100.0)
        assert times == [10.0, 20.0]
        assert not task.active

    def test_fired_counter(self, sim):
        task = sim.every(1.0, lambda: None)
        sim.run_until(5.5)
        assert task.fired == 5

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    @pytest.mark.parametrize("interval", [math.nan, -1.0])
    def test_nan_or_negative_interval_rejected(self, sim, interval):
        with pytest.raises(SimulationError, match="interval"):
            sim.every(interval, lambda: None)
        assert len(sim.events) == 0

    def test_nan_until_rejected(self, sim):
        with pytest.raises(SimulationError, match="until"):
            sim.every(1.0, lambda: None, until=math.nan)
        assert len(sim.events) == 0

    def test_start_in_the_past_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.every(1.0, lambda: None, start=5.0)
        assert len(sim.events) == 0

    def test_start_in_the_past_after_until_schedules_nothing(self, sim):
        sim.run_until(10.0)
        task = sim.every(1.0, lambda: None, start=5.0, until=4.0)
        assert len(sim.events) == 0
        assert task.fired == 0

    def test_stop_from_inside_callback(self, sim):
        task_holder = {}
        times = []

        def fire():
            times.append(sim.now)
            if len(times) == 2:
                task_holder["task"].stop()

        task_holder["task"] = sim.every(1.0, fire)
        sim.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_stop_mid_run_leaves_no_live_count_drift(self, sim):
        # A stopped task cancels its pending reschedule; the queue's
        # live/dead accounting must come out exactly even so a later
        # drain sees a truly empty queue.
        tasks = [sim.every(1.0, lambda: None) for _ in range(5)]
        sim.call_at(10.5, lambda: [t.stop() for t in tasks[:3]])
        sim.run_until(20.0)
        assert sum(1 for t in tasks if t.active) == 2
        # Two live reschedules (one per surviving task) remain pending.
        assert len(sim.events) == 2
        sim.run_until(21.0)
        assert len(sim.events) == 2
        for task in tasks:
            task.stop()
        assert len(sim.events) == 0
        assert sim.events.empty()
        sim.run_until(30.0)
        assert len(sim.events) == 0

    def test_stop_churn_storm_accounting_exact(self, sim):
        # Start/stop many periodic tasks on different phases and check
        # the queue never drifts: after everything stops, zero live
        # events and no stale execution.
        fired = []
        tasks = []

        def launch(interval):
            tasks.append(sim.every(interval, lambda: fired.append(sim.now)))

        for interval in (1.0, 2.0, 3.0, 5.0, 7.0):
            launch(interval)
        sim.call_at(8.0, lambda: [t.stop() for t in tasks[::2]])
        sim.call_at(16.0, lambda: [t.stop() for t in tasks])
        sim.run_until(50.0)
        assert len(sim.events) == 0
        assert sim.events.empty()
        assert all(not t.active for t in tasks)
        assert max(fired) <= 16.0


class TestRecording:
    def test_record_and_filter(self, sim):
        sim.call_at(1.0, lambda: sim.record("alpha", "one", value=1))
        sim.call_at(2.0, lambda: sim.record("beta", "two"))
        sim.run_until(5.0)
        alpha = sim.records("alpha")
        assert len(alpha) == 1
        assert alpha[0].time == 1.0
        assert alpha[0].data["value"] == 1

    def test_rng_shorthand(self, sim):
        assert sim.rng("x") is sim.streams.get("x")

    def test_long_horizon_clock_precision(self):
        # 100 years in seconds is ~3.2e9; doubles must resolve seconds.
        sim = Simulation()
        hits = []
        sim.call_at(units.years(100.0), lambda: hits.append(sim.now))
        sim.run_until(units.years(100.0))
        assert hits and hits[0] == units.years(100.0)

    def test_repr(self, sim):
        assert "Simulation(" in repr(sim)
