"""Edge devices: energy-harvesting, transmit-only sensors (§4.1).

An ``EdgeDevice`` wakes on its reporting interval, pays the energy cost
of one duty cycle, and blurts a packet at every reachable gateway of its
radio technology until one decodes it.  It is incapable of receiving —
minimal security risk, limited longitudinal trust, and no dependence on
any *specific* gateway instance (when its attachment policy allows).

Device hardware failure is a component-level competing-risks process
armed at deployment.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import PeriodicTask, Simulation
from ..core.entity import Entity, EntityState
from ..core.policy import AttachmentPolicy
from ..energy.harvester import HarvestingSystem
from ..radio.link import RadioSpec, attempt_delivery
from ..radio.packets import Packet, Reading, credit_units
from ..reliability.distributions import LifetimeDistribution
from ..reliability.failure import FailureProcess
from .gateway import Gateway
from .geometry import ORIGIN, Position

#: A broadcast is heard (or not) by everything in range at once; trying
#: the four best live links covers any realistic decode set.  Shared by
#: the per-entity duty cycle, the spatial-index candidate query, and the
#: cohort-batched path, so all three try identical link sequences.
MAX_LINKS_TRIED = 4

#: One entry of a link table: a hearing gateway, the transmitter's
#: distance to it (clamped to 1 m), and the mean path loss over that
#: distance, in dB.
Link = Tuple[Gateway, float, float]


def link_table(
    position: Position, gateways: Iterable[Gateway], frequency_hz: float
) -> Tuple[Link, ...]:
    """The link table a transmitter at ``position`` tries, in order.

    ``mean_loss_db`` is the exact expression
    :func:`~repro.radio.link.attempt_delivery` evaluates for the same
    link, so a cached entry is bit-identical to a per-report
    recomputation.
    """
    table = []
    for gateway in gateways:
        distance_m = max(position.distance_to(gateway.position), 1.0)
        mean_loss_db = gateway.path_loss.mean_loss_db(distance_m, frequency_hz)
        table.append((gateway, distance_m, mean_loss_db))
    return tuple(table)


def first_decoder(
    links: Tuple[Link, ...], spec: RadioSpec, rng: np.random.Generator
) -> Optional[Gateway]:
    """The first gateway in ``links`` to decode one broadcast, or None.

    One :func:`~repro.radio.link.attempt_delivery` trial per link, in
    table order, on the cached mean loss: the same draws and IEEE-754
    operations as recomputing the loss for every trial.
    """
    for gateway, distance_m, mean_loss_db in links:
        if attempt_delivery(spec, gateway.path_loss, distance_m, rng, mean_loss_db):
            return gateway
    return None


def reach_sq(position: Position, links: Tuple[Link, ...]) -> float:
    """How far a hearing change must lie for ``links`` to outlive it.

    The squared distance from ``position`` to the table's last entry
    when the table is full; +inf otherwise, so that any change at all
    invalidates a table with room for another gateway.
    """
    if len(links) < MAX_LINKS_TRIED:
        return math.inf
    return position.distance_sq_to(links[-1][0].position)


def outlives(x, y, reach, changes: Sequence[Gateway]):
    """Whether a link table at ``(x, y)`` stays exact across ``changes``.

    The survival rule both engines use.  ``reach`` is the table's
    :func:`reach_sq`, and ``changes`` are the gateways a
    :class:`~repro.net.topology.GatewayIndex` logged as having gained
    or lost hearing since the table was validated.  The table survives
    if every one of them lies strictly farther than its last entry.
    Candidates rank by (distance², provider order), a changed gateway
    outside the table's disk cannot rank above an entry inside it, and
    the gateways inside the disk, with their relative order, are the
    same as when the table was built: so are its first
    ``MAX_LINKS_TRIED``.  The caller also checks that nothing else the
    table was built from (the owner's dependencies) moved.

    ``x``, ``y`` and ``reach`` may be floats (one device: returns a
    bool) or numpy arrays (a cohort's members: returns a bool array).
    The squared distance is the one :meth:`Position.distance_sq_to`
    computes.
    """
    survives = True
    for gateway in changes:
        position = gateway.position
        dx = x - position.x
        dy = y - position.y
        survives = survives & (dx * dx + dy * dy > reach)
    return survives


class EdgeDevice(Entity):
    """A transmit-only monitoring sensor.

    Parameters
    ----------
    technology:
        Radio family, must match candidate gateways ("802.15.4"/"lora").
    spec:
        Uplink radio parameters.
    airtime_s:
        Time on air for this device's frame (from the PHY model).
    report_interval:
        Seconds between scheduled transmissions.
    power:
        Harvesting system, or None for an always-powered node (the
        energy constraint is then skipped; hardware lifetime still
        applies via ``lifetime_model``).
    lifetime_model:
        Component-level competing-risks model armed at deployment; None
        disables hardware failure (useful in unit tests).
    attachment:
        Whether the device may use any compatible gateway or is bound to
        its first.
    """

    TIER = "device"

    def __init__(
        self,
        sim: Simulation,
        technology: str,
        spec: RadioSpec,
        airtime_s: float,
        report_interval: float,
        payload_bytes: int = 24,
        position: Position = ORIGIN,
        power: Optional[HarvestingSystem] = None,
        lifetime_model: Optional[LifetimeDistribution] = None,
        attachment: AttachmentPolicy = AttachmentPolicy.ANY_COMPATIBLE,
        sensor_kind: str = "concrete-health",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        if report_interval <= 0.0:
            raise ValueError("report_interval must be positive")
        if airtime_s <= 0.0:
            raise ValueError("airtime_s must be positive")
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be non-negative, got {payload_bytes}")
        self.technology = technology
        self.spec = spec
        self.airtime_s = airtime_s
        self.report_interval = report_interval
        self.payload_bytes = payload_bytes
        #: What each report costs a paying gateway.
        self._credits = credit_units(payload_bytes)
        self.position = position
        self.power = power
        self.lifetime_model = lifetime_model
        self.attachment = attachment
        self.sensor_kind = sensor_kind
        self.signing_key = f"factory-key:{self.name}"

        #: The device's only topology cache: the link table of its first
        #: ``MAX_LINKS_TRIED`` hearing candidates, checked once per
        #: ``topology_version`` (bumped by every entity lifecycle
        #: transition, degrade window and dependency rewiring) and
        #: rebuilt only when the bump can change it.  See
        #: :meth:`_revalidate_links`.
        self._links: Tuple[Link, ...] = ()
        self._links_version: int = -1
        #: What the table was validated against: the index epoch (-1:
        #: never built), the dependencies with their ``hears()`` states,
        #: and the table's :func:`reach_sq`.
        self._links_epoch: int = -1
        self._links_dependencies: List[tuple] = []
        self._links_reach_sq: float = math.inf
        # The streams the duty cycle draws from, fetched once: the same
        # generators ``sim.rng(name)`` returns on every call.
        self._radio_rng = sim.rng("radio")
        self._energy_rng = sim.rng("energy")

        #: Optional dynamic discovery: a
        #: :class:`~repro.net.topology.GatewayIndex` over a gateway
        #: population (e.g. a Helium network's live hotspots) answering
        #: nearest-hearing queries.  When set, transmissions consider
        #: these gateways in addition to static ``depends_on`` links —
        #: the device relies on *properties* of infrastructure, not
        #: specific instances.
        self.gateway_index = None

        # Duty-cycle accounting lives in the run's metrics registry —
        # one labelled instrument per outcome, registered once here and
        # bumped by direct reference in the warm path.  The attribute
        # names below are read-only views of these instruments.
        metrics = sim.metrics
        self._c_attempts = metrics.counter(
            "net_reports_attempted_total", tier=self.TIER, entity=self.name
        )
        self._c_delivered = metrics.counter(
            "net_reports_delivered_total", tier=self.TIER, entity=self.name
        )
        self._c_energy_denied = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="energy",
        )
        self._c_no_gateway = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="no-gateway",
        )
        self._c_radio_lost = metrics.counter(
            "net_reports_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="radio",
        )
        self._task: Optional[PeriodicTask] = None
        self._failure: Optional[FailureProcess] = None
        self._last_energy_step: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_deploy(self) -> None:
        self._last_energy_step = self.sim.now
        if self.lifetime_model is not None:
            self._failure = FailureProcess(
                self.sim, self, self.lifetime_model, stream="device-hw"
            )
            self._failure.arm()
        self._task = self.sim.every(
            self.report_interval, self._report, label=f"report:{self.name}"
        )

    def on_end(self, reason: str) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
        if self._failure is not None:
            self._failure.disarm()
            self._failure = None

    # ------------------------------------------------------------------
    # The duty cycle
    # ------------------------------------------------------------------
    @property
    def gateway_index(self):
        """The spatial-discovery index (see ``__init__``), or None."""
        return self._gateway_index

    @gateway_index.setter
    def gateway_index(self, index) -> None:
        self._gateway_index = index
        self._links_version = -1
        self._links_epoch = -1

    def candidate_gateways(self) -> List[Gateway]:
        """Gateways this device may try, ordered nearest-first.

        Instance-bound devices only ever try their *literal first*
        dependency — the §3.1 anti-pattern whose cost the policy
        ablation measures.  The binding is to the commissioned instance
        itself: if that dependency is incompatible or not a gateway at
        all, the device is stranded rather than silently rebound to a
        later dependency.

        An uncached query: :meth:`fresh_links` calls it on every
        rebuild.  Entries may not hear — the link table keeps only the
        first ``MAX_LINKS_TRIED`` that do.

        With a ``gateway_index`` attached, discovery adds the index's
        ``MAX_LINKS_TRIED`` nearest gateways currently able to hear.
        Because the link table drops non-hearing candidates and keeps
        at most ``MAX_LINKS_TRIED`` hearing ones, it is identical to the
        one built from the index's whole population.
        """
        candidates = list(self.depends_on)
        if self.attachment is AttachmentPolicy.INSTANCE_BOUND:
            candidates = candidates[:1]
        elif self._gateway_index is not None:
            candidates.extend(
                self._gateway_index.nearest_hearing(
                    self.position, count=MAX_LINKS_TRIED
                )
            )
        seen = set()
        gateways = []
        technology = self.technology
        for g in candidates:
            if not isinstance(g, Gateway) or g.technology != technology:
                continue
            if id(g) in seen:
                continue
            seen.add(id(g))
            gateways.append(g)
        position = self.position
        gateways.sort(key=lambda g: position.distance_sq_to(g.position))
        return gateways

    def fresh_links(self) -> Tuple[Link, ...]:
        """The link table as the current topology defines it.

        The first ``MAX_LINKS_TRIED`` candidates that hear, nearest
        first.  Reads nothing cached on the device and writes nothing,
        so the invariant auditor can compare it with the cached table.
        """
        hearing = []
        for gateway in self.candidate_gateways():
            if gateway.hears():
                hearing.append(gateway)
                if len(hearing) == MAX_LINKS_TRIED:
                    break
        return link_table(self.position, hearing, self.spec.frequency_hz)

    def _revalidate_links(self) -> None:
        """Bring the link table up to the current topology version.

        The table is kept if the bump provably cannot change it: the
        dependencies, in order and with their ``hears()`` states, are
        the ones it was built from, and (unless the device is
        instance-bound) it :func:`outlives` every gateway the index
        logged as changed since.  Otherwise it is rebuilt from
        :meth:`fresh_links`.
        """
        index = self._gateway_index
        if self.attachment is AttachmentPolicy.INSTANCE_BOUND:
            index = None
        dependencies = [
            (d, isinstance(d, Gateway) and d.hears()) for d in self.depends_on
        ]
        epoch = self._links_epoch
        if epoch >= 0 and dependencies == self._links_dependencies:
            if index is None:
                return
            changes = index.changes_since(epoch)
            position = self.position
            if outlives(position.x, position.y, self._links_reach_sq, changes):
                self._links_epoch = epoch + len(changes)
                return
        self._links = self.fresh_links()
        self._links_dependencies = dependencies
        self._links_reach_sq = reach_sq(self.position, self._links)
        self._links_epoch = 0 if index is None else index.epoch()

    def _report(self) -> None:
        """One duty cycle: pay energy, then try the link table.

        The table is revalidated only when ``topology_version`` moves.
        That is exact: every transition that can flip a gateway's
        ``hears()`` bumps the version, so between bumps the first
        ``MAX_LINKS_TRIED`` hearing candidates are the links a lazy
        ``hears()`` check at report time would try.  The trials run in
        :func:`first_decoder`, on the cached mean loss.
        """
        if self.state is not EntityState.ACTIVE or self.forced_degradations:
            return  # dead, or muted by an injected degrade window
        self._c_attempts.value += 1
        power = self.power
        if power is not None:
            now = self.sim.now
            dt = now - self._last_energy_step
            self._last_energy_step = now
            power.step(dt, self._energy_rng)
            if not power.try_transmit(self.airtime_s):
                self._c_energy_denied.value += 1
                return
        version = self.sim.topology_version
        if self._links_version != version:
            self._revalidate_links()
            self._links_version = version
        links = self._links
        if not links:
            self._c_no_gateway.value += 1
            return
        gateway = first_decoder(links, self.spec, self._radio_rng)
        if gateway is None:
            self._c_radio_lost.value += 1
            return
        if gateway.receive(self.name, self._credits):
            self._c_delivered.value += 1

    def make_packet(self) -> Packet:
        """Build an uplink frame with a fresh reading.

        Not part of the duty cycle, which forwards only the device's
        name and its packets' credit cost; the reading is drawn from the
        "sensing" stream, which nothing else reads.
        """
        reading = Reading(
            kind=self.sensor_kind,
            value=float(self.sim.rng("sensing").normal(loc=1.0, scale=0.05)),
            unit="normalized",
        )
        return Packet(
            source=self.name,
            created_at=self.sim.now,
            payload_bytes=self.payload_bytes,
            reading=reading,
            signed_with=self.signing_key,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def attempts(self) -> int:
        """Scheduled reports attempted (registry-backed)."""
        return self._c_attempts.value

    @property
    def delivered(self) -> int:
        """Reports that reached a recording endpoint (registry-backed)."""
        return self._c_delivered.value

    @property
    def energy_denied(self) -> int:
        """Reports skipped for lack of harvested energy (registry-backed)."""
        return self._c_energy_denied.value

    @property
    def no_gateway(self) -> int:
        """Reports with no live compatible gateway in range (registry-backed)."""
        return self._c_no_gateway.value

    @property
    def radio_lost(self) -> int:
        """Reports lost on the radio link (registry-backed)."""
        return self._c_radio_lost.value

    @property
    def delivery_rate(self) -> float:
        """Fraction of scheduled reports that reached the backend.

        NaN before the first attempt: a device that was never scheduled
        is not a device that always failed, and folding 0.0 into a
        fleet mean would penalise late-deployed cohorts.  Aggregators
        must skip NaN entries (``math.isnan``).
        """
        if self.attempts == 0:
            return math.nan
        return self.delivered / self.attempts

    def loss_breakdown(self) -> dict:
        """Counts by loss cause, for the experiment diary."""
        return {
            "attempts": self.attempts,
            "delivered": self.delivered,
            "energy_denied": self.energy_denied,
            "no_gateway": self.no_gateway,
            "radio_lost": self.radio_lost,
        }
