"""repro.obs — the deterministic telemetry layer.

One instrumentation substrate for every subsystem (§4.5: a system whose
custodians turn over for fifty years must be legible from its telemetry
alone).  Three pieces:

* :mod:`repro.obs.metrics` — typed Counter / Gauge / Histogram
  instruments in a :class:`MetricsRegistry`, keyed by name + label
  tuple, with hot-path bumps that are plain attribute stores.
* :mod:`repro.obs.snapshot` — picklable :class:`MetricsSnapshot` with a
  commutative, associative ``merge`` so per-worker snapshots reassemble
  bit-identically at any worker count.
* :mod:`repro.obs.export` — canonical JSONL and Prometheus text
  exporters.

Layer contract: ``obs`` sits below everything (even ``core`` imports
it) and imports only the standard library; nothing here reads a clock,
draws randomness, or schedules events.
"""

from .export import load_snapshot_line, snapshot_json, to_prometheus
from .metrics import (
    GAUGE_AGGS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .snapshot import (
    EMPTY_SNAPSHOT,
    MetricsSnapshot,
    canonical_labels,
    merge_all,
)

__all__ = [
    "Counter",
    "EMPTY_SNAPSHOT",
    "GAUGE_AGGS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "canonical_labels",
    "load_snapshot_line",
    "merge_all",
    "snapshot_json",
    "to_prometheus",
]
