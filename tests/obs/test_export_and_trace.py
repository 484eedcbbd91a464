"""Exporter (JSONL / Prometheus) and EventTracer tests."""

import json

import pytest

from repro.core.engine import Simulation
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    load_snapshot_line,
    snapshot_json,
    to_prometheus,
)


def sample_snapshot():
    reg = MetricsRegistry()
    reg.counter("c_total", tier="device").value = 3
    reg.gauge("g", agg="max").set(7)
    h = reg.histogram("h_seconds", edges=(1.0, 10.0))
    h.observe(0.5)
    h.observe(5.0)
    h.observe(99.0)
    return reg.snapshot()


class TestJsonl:
    def test_line_is_canonical_and_meta_rides_along(self):
        snap = sample_snapshot()
        line = snapshot_json(snap, run=2, seed=17)
        assert "\n" not in line
        # Canonical: re-serializing the parsed payload reproduces the bytes.
        assert json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        ) == line
        meta, clone = load_snapshot_line(line)
        assert meta == {"run": 2, "seed": 17}
        assert clone == snap


class TestPrometheus:
    def test_exposition_shape(self):
        text = to_prometheus(sample_snapshot())
        lines = text.splitlines()
        assert "# TYPE c_total counter" in lines
        assert 'c_total{tier="device"} 3' in lines
        assert "# TYPE g gauge" in lines
        assert "g 7" in lines
        # Cumulative buckets: 1 at le=1.0, 2 at le=10.0, 3 at +Inf.
        assert 'h_seconds_bucket{le="1.0"} 1' in lines
        assert 'h_seconds_bucket{le="10.0"} 2' in lines
        assert 'h_seconds_bucket{le="+Inf"} 3' in lines
        assert "h_seconds_count 3" in lines
        # No _sum series: the layer keeps no float sum by design.
        assert not any("h_seconds_sum" in line for line in lines)


class TestEventTracer:
    def run_sim(self, tracer, n=10):
        sim = Simulation(seed=1)
        for i in range(n):
            sim.call_at(float(i), lambda: None, label=f"e{i}")
        tracer.install(sim)
        sim.run_until(float(n))
        return sim

    def test_samples_by_sequence(self):
        tracer = EventTracer(every=3)
        self.run_sim(tracer, n=10)
        assert [s.sequence for s in tracer.spans] == [0, 3, 6, 9]
        assert tracer.sampled == 4
        assert tracer.dropped == 0

    def test_limit_counts_drops(self):
        tracer = EventTracer(every=1, limit=4)
        self.run_sim(tracer, n=10)
        assert len(tracer.spans) == 4
        assert tracer.dropped == 6

    def test_chains_existing_hook(self):
        sim = Simulation(seed=1)
        seen = []
        sim.trace_executed = lambda event: seen.append(event.sequence)
        sim.call_at(1.0, lambda: None)
        tracer = EventTracer(every=1).install(sim)
        sim.run_until(2.0)
        assert seen == [0]  # the pre-existing hook still fires
        assert [s.sequence for s in tracer.spans] == [0]
        tracer.uninstall()
        assert sim.trace_executed is not tracer._on_event

    def test_double_install_rejected(self):
        sim = Simulation(seed=1)
        tracer = EventTracer().install(sim)
        with pytest.raises(RuntimeError, match="already installed"):
            tracer.install(sim)

    def test_trace_is_deterministic_across_runs(self):
        def trace():
            tracer = EventTracer(every=2)
            self.run_sim(tracer, n=8)
            return tracer.as_tuples()

        assert trace() == trace()

    def test_validation(self):
        with pytest.raises(ValueError):
            EventTracer(every=0)
        with pytest.raises(ValueError):
            EventTracer(limit=0)
