"""Gateways: the translation layer between device radios and the backhaul.

Per §3.2's takeaways, a gateway "should primarily act only as a router":
``Gateway.receive`` checks a blocklist and forwards the sender's name up
the dependency DAG, deferring all decision-making to the backend.  The
stateful alternative (per-device connection keys, closed-loop control) is
represented by :class:`~repro.core.policy.GatewayRole` and shows up as a
commissioning cost when gateways are replaced.

``OwnedGateway`` is the paper's Raspberry-Pi-class, campus-backhauled
unit — it fails per the platform reliability model and may be maintained.
``ThirdPartyGateway`` is a hotspot someone else operates (the Helium
case) — it *churns*: its owner may unplug it at any time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..core.engine import Simulation
from ..core.entity import Entity, EntityState
from ..core.policy import GatewayRole
from ..radio.link import PathLossModel, RadioSpec
from .geometry import ORIGIN, Position

#: One hop of a gateway's forwarding route: the backhaul's
#: ``carries_traffic``, its name, and its endpoint's ``deliver_many``.
Route = Tuple[Callable[[], bool], str, Callable[..., bool]]


class Gateway(Entity):
    """Base gateway: radio endpoint + packet router.

    ``technology`` must match the transmitting device's radio for a
    packet to be heard at all.  ``spec``/``path_loss`` define the uplink
    the device sees towards this gateway.
    """

    TIER = "gateway"

    def __init__(
        self,
        sim: Simulation,
        technology: str,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        role: GatewayRole = GatewayRole.ROUTER_ONLY,
    ) -> None:
        super().__init__(sim, name)
        self.technology = technology
        self.spec = spec
        self.path_loss = path_loss
        self.position = position
        self.role = role
        self.blocklist: Set[str] = set()
        #: The forwarding route, resolved once per ``topology_version``
        #: (see :meth:`_forward`).
        self._route: Tuple[Route, ...] = ()
        self._route_version: int = -1
        # Per-hop packet accounting in the run's metrics registry; the
        # attribute names below are read-only views of these
        # instruments, and the invariant auditor's link-conservation
        # check reads the same instruments the forwarding path writes.
        metrics = sim.metrics
        self._c_received = metrics.counter(
            "net_packets_received_total", tier=self.TIER, entity=self.name
        )
        self._c_forwarded = metrics.counter(
            "net_packets_forwarded_total", tier=self.TIER, entity=self.name
        )
        self._c_drop_blocklist = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="blocklist",
        )
        self._c_drop_backhaul = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="backhaul",
        )
        self._c_drop_endpoint = metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="endpoint",
        )

    def block(self, device_name: str) -> None:
        """Add a known-bad device to the forwarding blocklist (§3.2)."""
        self.blocklist.add(device_name)

    def unblock(self, device_name: str) -> None:
        """Remove a device from the blocklist."""
        self.blocklist.discard(device_name)

    def hears(self) -> bool:
        """True if the gateway can currently receive radio traffic.

        Contract: it may change only on a transition that bumps
        ``sim.topology_version`` (lifecycle, degrade window, rewiring).
        :class:`~repro.net.device.EdgeDevice` and
        :class:`~repro.net.cohort.DeviceCohort` call it when they
        rebuild a link table, once per version, and never per report;
        :meth:`receive` checks it per packet.  Keep it O(1) and
        side-effect free: ``alive`` is spelled out as the state test,
        since the property costs a call per packet.
        """
        return self.state is EntityState.ACTIVE and self.forced_degradations == 0

    def receive(self, source: str, credits: int) -> bool:
        """Accept a radio-decoded packet from ``source`` and forward it.

        ``credits`` is what the packet costs a paying gateway (see
        :func:`~repro.radio.packets.credit_units`); an owned gateway
        forwards for free.  Returns True iff the packet reached a
        recording endpoint.  Drop reasons are counted for the
        benchmarks' loss breakdowns.
        """
        if not self.hears():
            return False
        return self._forward((source,), self.sim.now) == 1

    def receive_many(self, sources: Sequence[str], now: float, credits: int) -> int:
        """Accept one decoded packet per source, all sent at ``now``.

        The bulk form of :meth:`receive` for a cohort report event; every
        packet costs ``credits``.  No other event runs inside one, so
        ``hears()``, the backhaul's ``carries_traffic()`` and the
        endpoint's ``accepting()`` hold for the whole batch and one route
        walk serves every packet.  Returns the number of packets that
        reached a recording endpoint.
        """
        if not self.hears():
            return 0
        return self._forward(sources, now)

    def _forward(self, sources: Sequence[str], now: float) -> int:
        """Blocklist, route walk and drop accounting for heard packets.

        The route is resolved once per ``topology_version``: every
        ``depends_on`` edit goes through ``add_dependency`` or
        ``remove_dependency``, which bump it, so between bumps the
        backhauls and their first endpoints are the ones a walk of the
        dependency graph would find.  Only each backhaul's
        ``carries_traffic()`` is asked per packet (an outage does not
        bump the version).
        """
        count = len(sources)
        self._c_received.value += count
        blocklist = self.blocklist
        if blocklist:
            sources = [s for s in sources if s not in blocklist]
            if len(sources) < count:
                self._c_drop_blocklist.value += count - len(sources)
                count = len(sources)
        if not count:
            return 0
        version = self.sim.topology_version
        if self._route_version != version:
            self._route = self._resolve_route()
            self._route_version = version
        for carries_traffic, backhaul_name, deliver_many in self._route:
            if not carries_traffic():
                continue
            if deliver_many(sources, now, self.name, backhaul_name):
                self._c_forwarded.value += count
                return count
            self._c_drop_endpoint.value += count
            return 0
        self._c_drop_backhaul.value += count
        return 0

    def _resolve_route(self) -> Tuple[Route, ...]:
        """Each backhaul's ``carries_traffic`` and name, with the
        ``deliver_many`` of its first endpoint that has one, in
        dependency order.  A backhaul without both is skipped."""
        route = []
        for backhaul in self.depends_on:
            carries_traffic = getattr(backhaul, "carries_traffic", None)
            if carries_traffic is None:
                continue
            for endpoint in backhaul.depends_on:
                deliver_many = getattr(endpoint, "deliver_many", None)
                if deliver_many is not None:
                    route.append((carries_traffic, backhaul.name, deliver_many))
                    break
        return tuple(route)

    @property
    def packets_received(self) -> int:
        """Radio-decoded packets accepted (registry-backed)."""
        return self._c_received.value

    @property
    def packets_forwarded(self) -> int:
        """Packets that reached a recording endpoint (registry-backed)."""
        return self._c_forwarded.value

    @property
    def drops_blocklist(self) -> int:
        """Packets refused by the forwarding blocklist (registry-backed)."""
        return self._c_drop_blocklist.value

    @property
    def drops_backhaul(self) -> int:
        """Packets lost to a down backhaul (registry-backed)."""
        return self._c_drop_backhaul.value

    @property
    def drops_endpoint(self) -> int:
        """Packets refused by a dark endpoint (registry-backed)."""
        return self._c_drop_endpoint.value

    def commissioning_hours(self) -> float:
        """Labor to stand up a replacement for this gateway.

        Router-only gateways commission in an hour; stateful controllers
        must re-key every dependent device (§3.2's traffic-light case),
        which scales with attachment count.
        """
        base = 1.0
        if self.role is GatewayRole.ROUTER_ONLY:
            return base
        return base + 0.25 * len(self.dependents)


class OwnedGateway(Gateway):
    """A self-deployed, self-maintained 802.15.4 gateway (§4.2 case 1).

    Aggressively firewalled for the transmit-only application, so the
    security risk of unattended operation is bounded; reliability is the
    Raspberry-Pi-class platform model.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        role: GatewayRole = GatewayRole.ROUTER_ONLY,
    ) -> None:
        super().__init__(
            sim,
            technology="802.15.4",
            spec=spec,
            path_loss=path_loss,
            position=position,
            name=name,
            role=role,
        )


class ThirdPartyGateway(Gateway):
    """Someone else's hotspot ferrying our data for pay (§4.2 case 2).

    ``departs_at`` is the owner-churn time: the hotspot simply goes away
    (owner moved, mining stopped paying, hardware bricked).  No
    maintenance is possible — we don't own it.
    """

    def __init__(
        self,
        sim: Simulation,
        spec: RadioSpec,
        path_loss: PathLossModel,
        position: Position = ORIGIN,
        name: Optional[str] = None,
        departs_at: Optional[float] = None,
        asn: Optional[int] = None,
    ) -> None:
        super().__init__(
            sim,
            technology="lora",
            spec=spec,
            path_loss=path_loss,
            position=position,
            name=name,
            role=GatewayRole.ROUTER_ONLY,
        )
        self.departs_at = departs_at
        self.asn = asn
        #: Optional payment hook: any object with ``debit(credits) -> bool``.
        #: Set by :class:`~repro.net.helium.HeliumNetwork` so forwarding is
        #: refused once the prepaid wallet runs dry.
        self.wallet = None
        self._c_drop_unpaid = sim.metrics.counter(
            "net_packets_dropped_total",
            tier=self.TIER,
            entity=self.name,
            reason="unpaid",
        )
        if asn is not None:
            self.tags["asn"] = str(asn)

    @property
    def drops_unpaid(self) -> int:
        """Packets refused because the prepaid wallet was dry (registry-backed)."""
        return self._c_drop_unpaid.value

    def receive(self, source: str, credits: int) -> bool:
        if not self.hears():
            return False
        wallet = self.wallet
        if wallet is not None and not wallet.debit(credits):
            self._c_drop_unpaid.value += 1
            return False
        return self._forward((source,), self.sim.now) == 1

    def receive_many(self, sources: Sequence[str], now: float, credits: int) -> int:
        """Bulk :meth:`receive`: each source pays, in order, before routing.

        Debits are the one order-sensitive step of forwarding: hotspots
        may share a wallet, so a caller serving several of them must
        hand each packet over one at a time, in transmission order.
        """
        if not self.hears():
            return 0
        wallet = self.wallet
        if wallet is not None:
            paid = [s for s in sources if wallet.debit(credits)]
            self._c_drop_unpaid.value += len(sources) - len(paid)
            sources = paid
        return self._forward(sources, now)

    def on_deploy(self) -> None:
        if self.departs_at is not None:
            when = max(self.departs_at, self.sim.now)
            self.sim.call_at(when, self._depart, label=f"churn:{self.name}")

    def _depart(self) -> None:
        if self.alive:
            self.retire(reason="owner-churn")


def migrate_devices(
    outgoing: Gateway, incoming: Gateway, rehome_allowed: bool = True
) -> List[Entity]:
    """Move ``outgoing``'s dependents to ``incoming`` (§3.2 commissioning).

    Models the outgoing gateway acting as a trusted third party for
    migration.  If ``rehome_allowed`` is False (instance-bound devices),
    nothing migrates and the devices are stranded.  Returns the migrated
    devices.
    """
    if not rehome_allowed:
        return []
    migrated = []
    for device in list(outgoing.dependents):
        device.remove_dependency(outgoing)
        device.add_dependency(incoming)
        migrated.append(device)
    return migrated
