"""The gateway's cached forwarding route against a per-packet route walk.

:meth:`Gateway._forward` resolves its route (each backhaul's
``carries_traffic`` and the ``deliver_many`` of its first endpoint that
has one) once per ``topology_version`` and asks only
``carries_traffic()`` per packet.  The reference here is the direct
form: a gateway subclass whose ``_forward`` walks ``depends_on`` and
each backhaul's ``depends_on`` with ``getattr`` for every packet.

Two identical simulations take the same random sequence of backhaul
outages, degrade/restore windows on the gateway, a backhaul or an
endpoint, ``add_dependency``/``remove_dependency`` rewiring, domain
lapses, failures, blocklist edits and packets (``receive`` and
``receive_many``); every packet must get the same return value, and
the gateway's counters and both endpoints' records must stay equal.
The topology includes a plain entity that is neither a backhaul nor an
endpoint, a backhaul whose first dependency is not an endpoint, and
one with no endpoint at all.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Simulation
from repro.core.entity import Entity
from repro.net import (
    CampusBackhaul,
    CloudEndpoint,
    DataCreditWallet,
    OwnedGateway,
    ThirdPartyGateway,
)
from repro.radio import ieee802154
from repro.radio.lora import LoRaParameters, suburban_path_loss

SOURCES = ("d0", "d1", "d2")
BACKHAULS = ("b0", "b1", "b2")
ENDPOINTS = ("e0", "e1")
#: What a degrade window or a failure may hit.
TARGETS = ("gateway",) + BACKHAULS + ENDPOINTS
#: Dependency edges the rewiring may add or remove.
EDGES = tuple(("gateway", up) for up in BACKHAULS + ("relay",)) + tuple(
    (backhaul, up) for backhaul in BACKHAULS for up in ENDPOINTS + ("relay",)
)


def _walking_forward(self, sources, now):
    """The per-packet route walk: ``Gateway._forward`` with no cache."""
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
    for backhaul in self.depends_on:
        carries = getattr(backhaul, "carries_traffic", None)
        if carries is None or not carries():
            continue
        for endpoint in backhaul.depends_on:
            deliver_many = getattr(endpoint, "deliver_many", None)
            if deliver_many is None:
                continue
            if deliver_many(sources, now, self.name, backhaul.name):
                self._c_forwarded.value += count
                return count
            self._c_drop_endpoint.value += count
            return 0
    self._c_drop_backhaul.value += count
    return 0


class WalkingOwnedGateway(OwnedGateway):
    _forward = _walking_forward


class WalkingThirdPartyGateway(ThirdPartyGateway):
    _forward = _walking_forward


def _world(kind, walking):
    """Two endpoints, three backhauls, a relay and one gateway.

    ``b1``'s first dependency is the relay (no ``deliver_many``) and
    ``b2`` starts with no endpoint; the gateway routes over ``b0``,
    ``b1`` and the relay (no ``carries_traffic``).
    """
    sim = Simulation(seed=11)
    nodes = {name: CloudEndpoint(sim, name=name) for name in ENDPOINTS}
    nodes["relay"] = Entity(sim, name="relay")
    for name in BACKHAULS:
        nodes[name] = CampusBackhaul(sim, name=name)
    if kind == "owned":
        cls = WalkingOwnedGateway if walking else OwnedGateway
        gateway = cls(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            name="gw",
        )
    else:
        cls = WalkingThirdPartyGateway if walking else ThirdPartyGateway
        gateway = cls(
            sim,
            spec=LoRaParameters(spreading_factor=10).spec(),
            path_loss=suburban_path_loss(),
            name="gw",
        )
        gateway.wallet = DataCreditWallet()
        gateway.wallet.provision(40)
    nodes["gateway"] = gateway
    for src, up in (
        ("b0", "e0"),
        ("b1", "relay"),
        ("b1", "e1"),
        ("b2", "relay"),
        ("gateway", "b0"),
        ("gateway", "relay"),
        ("gateway", "b1"),
    ):
        nodes[src].add_dependency(nodes[up])
    for name in ENDPOINTS + ("relay",) + BACKHAULS + ("gateway",):
        nodes[name].deploy()
    return sim, nodes


def _apply(sim, nodes, op):
    """Apply one op; returns what a packet op returned, else None."""
    kind, arg = op
    gateway = nodes["gateway"]
    if kind == "advance":
        sim.run_until(sim.now + arg * 3600.0)
    elif kind == "outage":
        nodes[arg].up = False
    elif kind == "back-up":
        nodes[arg].up = True
    elif kind == "degrade":
        nodes[arg].force_degrade("test")
    elif kind == "restore":
        nodes[arg].restore_degrade("test")
    elif kind == "fail":
        nodes[arg].fail("test")
    elif kind == "link":
        nodes[arg[0]].add_dependency(nodes[arg[1]])
    elif kind == "unlink":
        nodes[arg[0]].remove_dependency(nodes[arg[1]])
    elif kind == "lapse":
        nodes[arg].domain_up = False
    elif kind == "renew":
        nodes[arg].domain_up = True
    elif kind == "block":
        gateway.block(arg)
    elif kind == "unblock":
        gateway.unblock(arg)
    elif kind == "receive":
        return gateway.receive(arg, 1)
    elif kind == "receive_many":
        return gateway.receive_many(arg, sim.now, 1)
    else:
        raise AssertionError(kind)
    return None


def _state(nodes):
    gateway = nodes["gateway"]
    counters = (
        gateway.packets_received,
        gateway.packets_forwarded,
        gateway.drops_blocklist,
        gateway.drops_backhaul,
        gateway.drops_endpoint,
        getattr(gateway, "drops_unpaid", 0),
    )
    endpoints = tuple(
        (nodes[e].delivered_count, dict(nodes[e].per_device_last)) for e in ENDPOINTS
    )
    return counters, endpoints


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=500.0)),
        st.tuples(st.sampled_from(["outage", "back-up"]), st.sampled_from(BACKHAULS)),
        st.tuples(st.sampled_from(["degrade", "restore"]), st.sampled_from(TARGETS)),
        st.tuples(st.just("fail"), st.sampled_from(TARGETS)),
        st.tuples(st.sampled_from(["link", "unlink"]), st.sampled_from(EDGES)),
        st.tuples(st.sampled_from(["lapse", "renew"]), st.sampled_from(ENDPOINTS)),
        st.tuples(st.sampled_from(["block", "unblock"]), st.sampled_from(SOURCES)),
        st.tuples(st.just("receive"), st.sampled_from(SOURCES)),
        st.tuples(
            st.just("receive_many"),
            st.lists(st.sampled_from(SOURCES), max_size=3, unique=True),
        ),
    ),
    max_size=40,
)


# Rewire a cached route to the other endpoint: a stale route would keep
# delivering to e0.
@example(
    kind="owned",
    ops=[
        ("receive", "d0"),
        ("unlink", ("b0", "e0")),
        ("link", ("b0", "e1")),
        ("receive", "d1"),
    ],
)
# An outage, which does not bump the topology version, moves traffic to
# the second backhaul and back.
@example(
    kind="third-party",
    ops=[
        ("receive", "d0"),
        ("outage", "b0"),
        ("receive_many", ["d0", "d1"]),
        ("back-up", "b0"),
        ("receive", "d2"),
    ],
)
# A backhaul gaining its first endpoint after the route was cached.
@example(
    kind="owned",
    ops=[
        ("link", ("gateway", "b2")),
        ("unlink", ("gateway", "b0")),
        ("unlink", ("gateway", "b1")),
        ("receive", "d0"),
        ("link", ("b2", "e1")),
        ("receive", "d0"),
    ],
)
@given(kind=st.sampled_from(["owned", "third-party"]), ops=_ops)
@settings(max_examples=300)
def test_cached_route_forwards_as_the_walk_does(kind, ops):
    sim, nodes = _world(kind, walking=False)
    ref_sim, ref_nodes = _world(kind, walking=True)
    for op in ops:
        assert _apply(sim, nodes, op) == _apply(ref_sim, ref_nodes, op), op
        assert _state(nodes) == _state(ref_nodes), op
