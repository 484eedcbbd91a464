"""Immutable metric snapshots with an order-independent ``merge``.

A :class:`MetricsSnapshot` is the frozen state of one
:class:`~repro.obs.metrics.MetricsRegistry`: plain tuples of plain
values, picklable across process boundaries, hashable, and canonically
sorted so equal contents always serialize to equal bytes.

``merge`` is the cross-worker reassembly primitive.  Its algebra is
deliberately restricted so that it is **commutative and associative**
(the hypothesis suite asserts both):

* counters are integers and add;
* gauges carry their aggregation (``sum``/``max``/``min``) in the data,
  so any two snapshots agree on how a name combines;
* histograms have fixed edges and integer bucket counts, which add.

That algebra is why a Monte-Carlo study's per-worker snapshots reduce
to the same merged snapshot at any worker count and in any completion
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple, Union

Number = Union[int, float]

#: Canonical label encoding: a sorted tuple of (key, value) pairs.
LabelPairs = Tuple[Tuple[str, str], ...]

#: (name, labels, value)
CounterEntry = Tuple[str, LabelPairs, int]
#: (name, labels, agg, value)
GaugeEntry = Tuple[str, LabelPairs, str, Number]
#: (name, labels, edges, bucket_counts, count)
HistogramEntry = Tuple[str, LabelPairs, Tuple[float, ...], Tuple[int, ...], int]


def canonical_labels(labels: Mapping[str, str]) -> LabelPairs:
    """Sort a label mapping into the canonical tuple key.

    Keys and values are coerced with ``str``; when every one already is
    exactly a ``str`` (the usual case, keyword labels), the coercion is
    the identity and is skipped.
    """
    items = labels.items()
    for k, v in items:
        if type(k) is not str or type(v) is not str:
            return tuple(sorted((str(k), str(v)) for k, v in items))
    return tuple(sorted(items))


@dataclass(frozen=True)
class MetricsSnapshot:
    """The frozen contents of a metrics registry.  See module docstring."""

    counters: Tuple[CounterEntry, ...] = ()
    gauges: Tuple[GaugeEntry, ...] = ()
    histograms: Tuple[HistogramEntry, ...] = ()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **label_filter: str) -> int:
        """Sum of matching counter entries (0 when none match)."""
        wanted = sorted(label_filter.items())
        total = 0
        for cname, labels, value in self.counters:
            if cname == name and all(pair in labels for pair in wanted):
                total += value
        return total

    def gauge_value(self, name: str, **label_filter: str) -> Number:
        """Matching gauge entries combined by their own aggregation.

        Returns 0 when nothing matches — absent instrumentation reads
        as zero, like a counter that never fired.
        """
        wanted = sorted(label_filter.items())
        values = []
        agg = "sum"
        for gname, labels, gagg, value in self.gauges:
            if gname == name and all(pair in labels for pair in wanted):
                values.append(value)
                agg = gagg
        if not values:
            return 0
        if agg == "sum":
            return sum(values)
        return max(values) if agg == "max" else min(values)

    def histogram_buckets(
        self, name: str, **label_filter: str
    ) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """(edges, summed bucket counts) for matching histogram entries."""
        wanted = sorted(label_filter.items())
        edges: Tuple[float, ...] = ()
        summed: list = []
        for hname, labels, hedges, buckets, _count in self.histograms:
            if hname != name or not all(pair in labels for pair in wanted):
                continue
            if not summed:
                edges = hedges
                summed = list(buckets)
            else:
                if hedges != edges:
                    raise ValueError(
                        f"histogram {name!r} has mismatched edges across "
                        f"label sets: {edges} vs {hedges}"
                    )
                summed = [a + b for a, b in zip(summed, buckets)]
        return edges, tuple(summed)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots; commutative and associative.

        Counters and histogram buckets add; gauges combine by the
        aggregation recorded in the entry.  Merging the same name with
        different gauge aggregations or histogram edges is a contract
        violation and raises ``ValueError``.
        """
        counters: Dict[Tuple[str, LabelPairs], int] = {}
        for name, labels, value in self.counters + other.counters:
            key = (name, labels)
            counters[key] = counters.get(key, 0) + value

        gauges: Dict[Tuple[str, LabelPairs], Tuple[str, Number]] = {}
        for name, labels, agg, value in self.gauges + other.gauges:
            key = (name, labels)
            held = gauges.get(key)
            if held is None:
                gauges[key] = (agg, value)
                continue
            held_agg, held_value = held
            if held_agg != agg:
                raise ValueError(
                    f"gauge {name!r} merged with conflicting aggregations "
                    f"{held_agg!r} vs {agg!r}"
                )
            if agg == "sum":
                merged = held_value + value
            elif agg == "max":
                merged = max(held_value, value)
            else:
                merged = min(held_value, value)
            gauges[key] = (agg, merged)

        histograms: Dict[
            Tuple[str, LabelPairs], Tuple[Tuple[float, ...], Tuple[int, ...], int]
        ] = {}
        for name, labels, edges, buckets, count in (
            self.histograms + other.histograms
        ):
            key = (name, labels)
            held = histograms.get(key)
            if held is None:
                histograms[key] = (edges, buckets, count)
                continue
            held_edges, held_buckets, held_count = held
            if held_edges != edges:
                raise ValueError(
                    f"histogram {name!r} merged with conflicting edges "
                    f"{held_edges} vs {edges}"
                )
            histograms[key] = (
                edges,
                tuple(a + b for a, b in zip(held_buckets, buckets)),
                held_count + count,
            )

        return MetricsSnapshot(
            counters=tuple(
                sorted((name, labels, value) for (name, labels), value in counters.items())
            ),
            gauges=tuple(
                sorted(
                    (name, labels, agg, value)
                    for (name, labels), (agg, value) in gauges.items()
                )
            ),
            histograms=tuple(
                sorted(
                    (name, labels, edges, buckets, count)
                    for (name, labels), (edges, buckets, count) in histograms.items()
                )
            ),
        )

    # ------------------------------------------------------------------
    # Serialization (canonical: equal snapshots -> equal bytes)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready dict; round-trips through :meth:`from_dict`."""
        return {
            "counters": [
                {"name": name, "labels": [list(p) for p in labels], "value": value}
                for name, labels, value in self.counters
            ],
            "gauges": [
                {
                    "name": name,
                    "labels": [list(p) for p in labels],
                    "agg": agg,
                    "value": value,
                }
                for name, labels, agg, value in self.gauges
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": [list(p) for p in labels],
                    "edges": list(edges),
                    "buckets": list(buckets),
                    "count": count,
                }
                for name, labels, edges, buckets, count in self.histograms
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsSnapshot":
        return cls(
            counters=tuple(
                (e["name"], tuple(tuple(p) for p in e["labels"]), int(e["value"]))
                for e in payload.get("counters", ())
            ),
            gauges=tuple(
                (
                    e["name"],
                    tuple(tuple(p) for p in e["labels"]),
                    e["agg"],
                    e["value"],
                )
                for e in payload.get("gauges", ())
            ),
            histograms=tuple(
                (
                    e["name"],
                    tuple(tuple(p) for p in e["labels"]),
                    tuple(float(x) for x in e["edges"]),
                    tuple(int(x) for x in e["buckets"]),
                    int(e["count"]),
                )
                for e in payload.get("histograms", ())
            ),
        )


#: The canonical empty snapshot — the identity element of ``merge`` and
#: the default ``RunResult.metrics`` for bare-sample tasks.
EMPTY_SNAPSHOT = MetricsSnapshot()


def merge_all(snapshots) -> MetricsSnapshot:
    """Left-fold ``merge`` over an iterable of snapshots.

    The algebra makes the fold order irrelevant for the result; callers
    still pass run-index order so float gauge sums are bit-stable too.
    """
    merged = EMPTY_SNAPSHOT
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


__all__ = [
    "CounterEntry",
    "EMPTY_SNAPSHOT",
    "GaugeEntry",
    "HistogramEntry",
    "LabelPairs",
    "MetricsSnapshot",
    "canonical_labels",
    "merge_all",
]
