"""The backend data endpoint and the paper's end-to-end uptime metric.

§4's top-level metric: "some data arrives at some interval of time up to
once a week that is publicly accessible at centurysensors.com."
``CloudEndpoint`` keeps a streamed record of arrivals — one small
summary per calendar week, for the whole endpoint and for each
registered group of sources — and evaluates weekly uptime from it.  Its
size grows with simulated weeks, never with packets.  It also models
the one *certain* maintenance event the paper calls out — the 10-year
maximum domain lease — as a renewal that, if ever missed, takes the
public page dark until re-registered.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import units
from ..core.engine import Simulation
from ..core.entity import Entity

#: ICANN's maximum registration period (§4.5, ref [18]).
MAX_DOMAIN_LEASE: float = units.years(10.0)

#: One calendar week's arrivals: ``[count, first, last, count at last]``.
WeekSummary = List


def _record(weeks: Dict[int, WeekSummary], week: int, now: float, count: int) -> None:
    """Fold ``count`` arrivals at ``now`` into ``weeks[week]``."""
    summary = weeks.get(week)
    if summary is None:
        weeks[week] = [count, now, now, count]
        return
    summary[0] += count
    if now > summary[2]:
        summary[2] = now
        summary[3] = count
    elif now < summary[2]:
        raise ValueError(f"arrival at {now} precedes the last one at {summary[2]}")
    else:
        summary[3] += count


def _split(edge: float, first: float, last: float) -> ValueError:
    return ValueError(
        f"window edge {edge} falls between arrivals at {first} and {last} of "
        "one calendar week; the endpoint keeps no per-arrival times within a "
        "week, so that window cannot be evaluated exactly"
    )


class CloudEndpoint(Entity):
    """The data display webpage / collection endpoint.

    ``renewal_miss_probability`` is the chance any given domain renewal
    is fumbled (staff turnover over 50 years makes this non-zero); a
    missed renewal causes an outage of ``renewal_recovery`` before
    someone notices and re-registers.
    """

    TIER = "cloud"

    def __init__(
        self,
        sim: Simulation,
        name: str = "centurysensors.com",
        renewal_miss_probability: float = 0.0,
        renewal_recovery: float = units.days(30.0),
    ) -> None:
        super().__init__(sim, name)
        if not 0.0 <= renewal_miss_probability <= 1.0:
            raise ValueError("renewal_miss_probability must be in [0, 1]")
        self.renewal_miss_probability = renewal_miss_probability
        self.renewal_recovery = renewal_recovery
        #: Optional override: a callable ``t -> miss probability`` used
        #: instead of the constant, e.g. an experimenter-succession
        #: model whose handoffs erode institutional memory (§4.5).
        self.miss_probability_fn = None
        self.per_device_last: Dict[str, float] = {}
        #: The arrival record, keyed by calendar week ``int(t // WEEK)``
        #: and kept in week order (arrivals come in time order).
        self._weeks: Dict[int, WeekSummary] = {}
        #: The same record per registered group, and each registered
        #: source's group record (see :meth:`register`).
        self._groups: Dict[str, Dict[int, WeekSummary]] = {}
        self._group_of: Dict[str, Dict[int, WeekSummary]] = {}
        self.domain_up = True
        # Endpoint accounting in the run's metrics registry.  The
        # delivered counter closes the link-conservation chain the
        # auditor checks (device -> gateway -> endpoint); the gap
        # histogram buckets per-device inter-arrival times at 1 h, 6 h,
        # 1 d, 1 w, 4 w — the last edge being the paper's uptime window.
        metrics = sim.metrics
        self._c_delivered = metrics.counter(
            "net_packets_delivered_total", tier=self.TIER, entity=self.name
        )
        self._c_renewals = metrics.counter(
            "net_domain_renewals_total", tier=self.TIER, entity=self.name
        )
        self._c_missed_renewals = metrics.counter(
            "net_domain_renewals_missed_total", tier=self.TIER, entity=self.name
        )
        self._h_gap = metrics.histogram(
            "net_delivery_gap_seconds",
            edges=(3600.0, 21600.0, 86400.0, 604800.0, 2419200.0),
            tier=self.TIER,
            entity=self.name,
        )
        # Hot-path contract: deliver_many() bumps the bucket list directly
        # (one bisect + one list store), no method call per packet.
        self._gap_edges = self._h_gap.edges
        self._gap_buckets = self._h_gap.bucket_counts

    def on_deploy(self) -> None:
        self.sim.call_in(
            MAX_DOMAIN_LEASE, self._domain_renewal, label=f"lease:{self.name}"
        )

    def _domain_renewal(self) -> None:
        if not self.alive:
            return
        self._c_renewals.value += 1
        rng = self.sim.rng("domain-renewals")
        miss_probability = self.renewal_miss_probability
        if self.miss_probability_fn is not None:
            miss_probability = float(self.miss_probability_fn(self.sim.now))
        if rng.random() < miss_probability:
            self._c_missed_renewals.value += 1
            self.domain_up = False
            self.sim.record("domain-lapse", self.name)
            self.sim.call_in(self.renewal_recovery, self._domain_recover)
        self.sim.call_in(MAX_DOMAIN_LEASE, self._domain_renewal)

    def _domain_recover(self) -> None:
        self.domain_up = True
        self.sim.record("domain-recover", self.name)

    def accepting(self) -> bool:
        """True if a delivery offered right now would be recorded publicly."""
        return self.alive and self.domain_up and self.forced_degradations == 0

    def register(self, source: str, group: str) -> None:
        """Also keep ``source``'s arrivals in ``group``'s own record.

        Register a source before its first arrival; a source belongs to
        at most one group.  :meth:`weekly_uptime` and
        :meth:`longest_silence_weeks` then answer for the group alone.
        """
        weeks = self._groups.setdefault(group, {})
        if self._group_of.setdefault(source, weeks) is not weeks:
            raise ValueError(f"{source} is already registered to another group")

    def deliver(self, source: str, via_gateway: str, via_backhaul: str) -> bool:
        """Record an arrival from ``source`` now.  False if the endpoint is dark."""
        return self.deliver_many((source,), self.sim.now, via_gateway, via_backhaul)

    def deliver_many(
        self,
        sources: Sequence[str],
        now: float,
        via_gateway: str,
        via_backhaul: str,
    ) -> bool:
        """Record one arrival per source, all at ``now``.

        Every update here (the week summaries, the delivered counter,
        each source's last arrival and gap bucket) is order-free across
        distinct sources, so a batch lands exactly as the same arrivals
        delivered one by one.  Arrivals must come in time order.
        ``via_gateway`` and ``via_backhaul`` name the route; the record
        does not keep them.  Returns False, and records nothing, if the endpoint is dark.
        """
        if not self.accepting():
            return False
        count = len(sources)
        if not count:
            return True
        week = int(now // units.WEEK)
        _record(self._weeks, week, now, count)
        self._c_delivered.value += count
        group_of = self._group_of
        per_device_last = self.per_device_last
        buckets = self._gap_buckets
        edges = self._gap_edges
        for source in sources:
            if group_of:
                weeks = group_of.get(source)
                if weeks is not None:
                    _record(weeks, week, now, 1)
            last = per_device_last.get(source)
            if last is not None:
                buckets[bisect_left(edges, now - last)] += 1
            per_device_last[source] = now
        return True

    # Compatibility views over the registry-backed counters.
    @property
    def delivered_count(self) -> int:
        """Packets recorded (the registry-backed counter)."""
        return self._c_delivered.value

    @property
    def delivery_gap_buckets(self) -> tuple:
        """Bucket counts of the per-device inter-arrival histogram.

        A read-only aggregate view (1 h / 6 h / 1 d / 1 w / 4 w edges
        plus overflow).
        """
        return tuple(self._gap_buckets)

    # ------------------------------------------------------------------
    # The paper's uptime metric
    # ------------------------------------------------------------------
    def _weeks_of(self, group: Optional[str]) -> Dict[int, WeekSummary]:
        """The whole record, or ``group``'s (empty if none registered)."""
        if group is None:
            return self._weeks
        return self._groups.get(group, {})

    def weekly_uptime(
        self, start: float, end: float, group: Optional[str] = None
    ) -> "UptimeReport":
        """Fraction of whole weeks in [start, end) with >= 1 arrival.

        This is exactly the §4 metric: the experiment is "up" in a week
        if *some* data arrived that week.  ``group`` restricts it to the
        sources :meth:`register` put in that group.

        Exact from the week summaries for any window.  A window week
        ``[a, a + WEEK)`` covers the tail of one calendar week and the
        head of the next, so it holds an arrival iff some calendar
        week's first or last arrival lies in it.  An arrival exactly at
        ``end`` is left out through the count at the last arrival.  An
        edge strictly between a calendar week's first and last arrival
        leaves ``total_deliveries`` unknown and raises ``ValueError``.
        """
        if end <= start:
            raise ValueError(f"end ({end}) must exceed start ({start})")
        n_weeks = int((end - start) // units.WEEK)
        if n_weeks == 0:
            raise ValueError("window shorter than one week")
        hit = [False] * n_weeks
        total_deliveries = 0
        for count, first, last, at_last in self._weeks_of(group).values():
            if last < start or first >= end:
                continue
            if first < start:  # so start <= last
                if start < last:
                    raise _split(start, first, last)
                count = at_last
            if last >= end:  # so first < end
                if end < last:
                    raise _split(end, first, last)
                count -= at_last
            total_deliveries += count
            for t in (first, last):
                if start <= t < end:
                    index = int((t - start) // units.WEEK)
                    if index < n_weeks:
                        hit[index] = True
        up_weeks = sum(hit)
        # Longest dark gap, in weeks.
        longest_gap = 0
        current = 0
        for h in hit:
            if h:
                current = 0
            else:
                current += 1
                longest_gap = max(longest_gap, current)
        return UptimeReport(
            weeks=n_weeks,
            up_weeks=up_weeks,
            uptime=up_weeks / n_weeks,
            longest_gap_weeks=longest_gap,
            total_deliveries=total_deliveries,
        )

    def longest_silence_weeks(self, end: float, group: Optional[str] = None) -> int:
        """Whole weeks in the longest stretch of [0, end) without an
        arrival: ``int(gap // WEEK)`` of the largest of the first
        arrival, the gaps between consecutive arrivals, and ``end``
        minus the last arrival.

        Exact from the week summaries: a gap of a week or more runs from
        one calendar week's last arrival to a later week's first, the
        same float subtraction a list of arrival times would make, and
        every other gap (inside one calendar week, including one cut at
        ``end``) is shorter than a week and floors to 0, so it never
        needs a week's inner arrival times.
        """
        if end <= 0.0:
            raise ValueError(f"end ({end}) must be positive")
        longest = 0.0
        previous = 0.0
        for _count, first, last, _at_last in self._weeks_of(group).values():
            if first >= end:
                break
            longest = max(longest, first - previous)
            previous = last
        # Negative when ``end`` cuts the last week: a gap inside it.
        longest = max(longest, end - previous)
        return int(longest // units.WEEK)

    def device_silence(self, horizon_end: float) -> Dict[str, float]:
        """Seconds since each known device was last heard, at ``horizon_end``."""
        return {
            name: horizon_end - last for name, last in self.per_device_last.items()
        }


@dataclass(frozen=True)
class UptimeReport:
    """Result of evaluating the weekly-uptime metric over a window."""

    weeks: int
    up_weeks: int
    uptime: float
    longest_gap_weeks: int
    total_deliveries: int

    def meets_goal(self, required: float = 0.99) -> bool:
        """Did the system hit the target weekly uptime?"""
        return self.uptime >= required
