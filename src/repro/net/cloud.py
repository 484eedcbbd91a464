"""The backend data endpoint and the paper's end-to-end uptime metric.

§4's top-level metric: "some data arrives at some interval of time up to
once a week that is publicly accessible at centurysensors.com."
``CloudEndpoint`` logs every delivery and evaluates weekly uptime; it
also models the one *certain* maintenance event the paper calls out —
the 10-year maximum domain lease — as a renewal that, if ever missed,
takes the public page dark until re-registered.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..core import units
from ..core.engine import Simulation
from ..core.entity import Entity
from ..radio.packets import DeliveryRecord, Packet

#: ICANN's maximum registration period (§4.5, ref [18]).
MAX_DOMAIN_LEASE: float = units.years(10.0)


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
        store_deliveries: bool = True,
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
        #: City-scale switch: with ``store_deliveries=False`` the
        #: endpoint keeps only aggregates (per-week arrival counts, the
        #: gap histogram, the delivered counter) instead of one
        #: ``DeliveryRecord`` per packet — a 100k-device month would
        #: otherwise pin millions of record objects.  The weekly-uptime
        #: metric still evaluates exactly (see :meth:`weekly_uptime`).
        self.store_deliveries = store_deliveries
        self.deliveries: List[DeliveryRecord] = []
        self.per_device_last: Dict[str, float] = {}
        self._week_counts: Dict[int, int] = {}
        self._last_arrival: float = -1.0
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

    def deliver(self, packet: Packet, via_gateway: str, via_backhaul: str) -> bool:
        """Record an arriving packet.  Returns False if the endpoint is dark."""
        return self.deliver_many(
            (packet.source,), self.sim.now, via_gateway, via_backhaul, lambda _s: packet
        )

    def deliver_many(
        self,
        sources: Sequence[str],
        now: float,
        via_gateway: str,
        via_backhaul: str,
        packet_for: Callable[[str], Packet],
    ) -> bool:
        """Record one packet per source, all arriving at ``now``.

        Every update here (week counts, the delivered counter, each
        source's last arrival and gap bucket) is order-free across
        distinct sources, so a batch lands exactly as the same packets
        delivered one by one.  ``packet_for(source)`` supplies the frame
        a ``store_deliveries`` endpoint records.  Returns False, and
        records nothing, if the endpoint is dark.
        """
        if not self.accepting():
            return False
        if not sources:
            return True
        records = None
        if self.store_deliveries:
            records = self.deliveries
        else:
            week = int(now // units.WEEK)
            counts = self._week_counts
            counts[week] = counts.get(week, 0) + len(sources)
            self._last_arrival = now
        self._c_delivered.value += len(sources)
        per_device_last = self.per_device_last
        buckets = self._gap_buckets
        edges = self._gap_edges
        for source in sources:
            if records is not None:
                records.append(
                    DeliveryRecord(
                        packet=packet_for(source),
                        received_at=now,
                        via_gateway=via_gateway,
                        via_backhaul=via_backhaul,
                    )
                )
            last = per_device_last.get(source)
            if last is not None:
                buckets[bisect_left(edges, now - last)] += 1
            per_device_last[source] = now
        return True

    # Compatibility views over the registry-backed counters.
    @property
    def delivered_count(self) -> int:
        """Packets recorded, independent of delivery-record storage.

        The registry-backed counter is the single source of truth;
        ``len(deliveries)`` only agrees with it while
        ``store_deliveries`` is on, so aggregate consumers (the
        invariant auditor, fleet summaries) read this instead.
        """
        return self._c_delivered.value

    @property
    def delivery_gap_buckets(self) -> tuple:
        """Bucket counts of the per-device inter-arrival histogram.

        A read-only aggregate view (1 h / 6 h / 1 d / 1 w / 4 w edges
        plus overflow) that exists in both delivery-storage modes.
        """
        return tuple(self._gap_buckets)

    @property
    def domain_renewals(self) -> int:
        """Domain lease renewals attempted (registry-backed)."""
        return self._c_renewals.value

    @property
    def missed_renewals(self) -> int:
        """Renewals fumbled, taking the page dark (registry-backed)."""
        return self._c_missed_renewals.value

    # ------------------------------------------------------------------
    # The paper's uptime metric
    # ------------------------------------------------------------------
    def weekly_uptime(self, start: float, end: float) -> "UptimeReport":
        """Fraction of whole weeks in [start, end) with >= 1 arrival.

        This is exactly the §4 metric: the experiment is "up" in a week
        if *some* data arrived that week.
        """
        if end <= start:
            raise ValueError(f"end ({end}) must exceed start ({start})")
        n_weeks = int((end - start) // units.WEEK)
        if n_weeks == 0:
            raise ValueError("window shorter than one week")
        hit = [False] * n_weeks
        if self.store_deliveries:
            arrivals = [
                r.received_at
                for r in self.deliveries
                if start <= r.received_at < end
            ]
            total_deliveries = len(arrivals)
            for t in arrivals:
                index = int((t - start) // units.WEEK)
                if index < n_weeks:
                    hit[index] = True
        else:
            # Aggregate mode keeps per-week counts bucketed from t=0, so
            # it can evaluate exactly only the windows those buckets
            # resolve: starting at 0 and extending past the last arrival.
            if start != 0.0:
                raise ValueError(
                    "store_deliveries=False endpoints bucket arrivals "
                    "from t=0; weekly_uptime requires start == 0.0"
                )
            if self._last_arrival >= end:
                raise ValueError(
                    "store_deliveries=False endpoints cannot evaluate a "
                    f"window ending at {end} before the last arrival at "
                    f"{self._last_arrival}"
                )
            total_deliveries = 0
            for week, count in self._week_counts.items():
                total_deliveries += count
                if week < n_weeks:
                    hit[week] = True
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
