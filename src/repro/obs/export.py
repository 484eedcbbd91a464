"""Snapshot exporters: canonical JSONL and Prometheus text format.

A JSONL line is byte-deterministic: ``json.dumps`` with sorted keys
and compact separators, no timestamps, no host information.  A
Monte-Carlo study exports one line per run (in run-index order) followed
by one merged line (:func:`repro.runtime.study_metrics_jsonl`), so the
file produced at ``--workers 4`` is byte-identical to the ``--workers
1`` file — the acceptance check of the whole observability layer.

The Prometheus exporter emits the familiar text exposition format
(``# TYPE`` headers, ``name{label="v"} value``) for humans and scrape
tooling; it shares the same canonical ordering.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from .snapshot import LabelPairs, MetricsSnapshot


def snapshot_json(snapshot: MetricsSnapshot, **meta: object) -> str:
    """One canonical JSON line for ``snapshot`` (no trailing newline).

    ``meta`` rides along at the top level (run index, seed, scenario…);
    keys are sorted, so identical content is identical bytes.
    """
    payload = dict(meta)
    payload["metrics"] = snapshot.to_dict()
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_snapshot_line(line: str) -> Tuple[dict, MetricsSnapshot]:
    """Parse one JSONL line back into (meta, snapshot)."""
    payload = json.loads(line)
    snapshot = MetricsSnapshot.from_dict(payload.pop("metrics"))
    return payload, snapshot


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _format_labels(labels: LabelPairs) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: object) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(snapshot: MetricsSnapshot, prefix: str = "") -> str:
    """Render ``snapshot`` in the Prometheus text exposition format.

    Histograms follow the convention: cumulative ``_bucket`` series with
    an ``le`` label (last bucket ``le="+Inf"``) plus a ``_count`` series.
    There is deliberately no ``_sum`` series — the layer does not keep a
    float sum, because exact cross-worker merging forbids it.
    """
    lines: List[str] = []
    seen_types = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {prefix}{name} {kind}")

    for name, labels, value in snapshot.counters:
        type_line(name, "counter")
        lines.append(f"{prefix}{name}{_format_labels(labels)} {_format_number(value)}")
    for name, labels, _agg, value in snapshot.gauges:
        type_line(name, "gauge")
        lines.append(f"{prefix}{name}{_format_labels(labels)} {_format_number(value)}")
    for name, labels, edges, buckets, count in snapshot.histograms:
        type_line(name, "histogram")
        cumulative = 0
        for edge, bucket in zip(edges, buckets):
            cumulative += bucket
            le_labels = labels + (("le", repr(float(edge))),)
            lines.append(
                f"{prefix}{name}_bucket{_format_labels(tuple(sorted(le_labels)))} "
                f"{cumulative}"
            )
        cumulative += buckets[-1]
        inf_labels = tuple(sorted(labels + (("le", "+Inf"),)))
        lines.append(f"{prefix}{name}_bucket{_format_labels(inf_labels)} {cumulative}")
        lines.append(f"{prefix}{name}_count{_format_labels(labels)} {count}")
    return "\n".join(lines) + ("\n" if lines else "")
