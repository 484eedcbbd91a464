"""Exporter (JSONL / Prometheus) tests."""

import json

from repro.obs import (
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
