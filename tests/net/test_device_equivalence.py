"""The per-entity duty cycle against a reference loop, under churn.

:meth:`EdgeDevice._report` tries a link table cached per topology
version, passing each link's cached mean loss to the trial.  The
reference here is the direct form: walk ``candidate_gateways()``,
skip gateways that do not ``hears()``, and call
:func:`~repro.radio.link.attempt_delivery` on at most
``MAX_LINKS_TRIED`` hearing links.  Two identical simulations take the
same random interleaving of gateway deploy, fail, degrade, restore and
retire with reports; every report must have the same outcome, and the
"radio" streams must end in the same state.

The device sees a static dependency, a spatial index holding more than
``MAX_LINKS_TRIED`` hearing gateways, and an incompatible-technology
(LoRa) gateway nearest of all in that index; every one of them churns.
Two index gateways sit at exactly the same distance, and gateways not
yet deployed lie both inside and beyond a full table's last entry, so
the survival rule (:func:`~repro.net.device.outlives`) sees changes on
either side of a table's reach and on it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Simulation, units
from repro.net import (
    MAX_LINKS_TRIED,
    CampusBackhaul,
    CloudEndpoint,
    EdgeDevice,
    GatewayIndex,
    OwnedGateway,
    Position,
    ThirdPartyGateway,
)
from repro.radio import credit_units, ieee802154
from repro.radio.link import attempt_delivery
from repro.radio.lora import LoRaParameters, suburban_path_loss

#: Index gateways (802.15.4) around the device at the origin, all near
#: the edge of coverage so reports try several links.  Axis-aligned, so
#: squared distances are exact: (0, -95) and (95, 0) tie.
_INDEX_POSITIONS = (
    (70.0, 0.0),
    (0.0, 80.0),
    (-88.0, 0.0),
    (0.0, -95.0),
    (95.0, 0.0),
    (-104.0, 0.0),
    # Not deployed at the start: one nearer than every table entry,
    # two beyond a full table's last entry.
    (0.0, 60.0),
    (0.0, 112.0),
    (125.0, 0.0),
)
_INITIALLY_UP = 6
_STATIC_DISTANCE_M = 90.0
_KINDS = ("report", "deploy", "fail", "degrade", "restore", "retire")


def _world(seed):
    sim = Simulation(seed=seed)
    cloud = CloudEndpoint(sim)
    cloud.deploy()
    backhaul = CampusBackhaul(sim)
    backhaul.add_dependency(cloud)
    backhaul.deploy()
    spec = ieee802154.default_spec()
    path_loss = ieee802154.urban_path_loss()
    gateways = []
    for x, y in _INDEX_POSITIONS:
        gateways.append(
            OwnedGateway(sim, spec=spec, path_loss=path_loss, position=Position(x, y))
        )
    lora = ThirdPartyGateway(
        sim,
        spec=LoRaParameters().spec(),
        path_loss=suburban_path_loss(),
        position=Position(5.0, 0.0),
    )
    static = OwnedGateway(
        sim, spec=spec, path_loss=path_loss, position=Position(0.0, _STATIC_DISTANCE_M)
    )
    everything = gateways + [lora, static]
    for gateway in everything:
        gateway.add_dependency(backhaul)
    index_population = [lora] + gateways
    device = EdgeDevice(
        sim,
        technology="802.15.4",
        spec=spec,
        airtime_s=ieee802154.airtime_s(24),
        report_interval=units.HOUR,
        position=Position(0.0, 0.0),
    )
    device.add_dependency(static)
    device.gateway_index = GatewayIndex(
        sim, lambda: index_population, cell_size_m=50.0
    )
    # Start with the LoRa gateway and six index gateways up: more than
    # MAX_LINKS_TRIED hearing links before any churn.
    for gateway in [lora, static] + gateways[:_INITIALLY_UP]:
        gateway.deploy()
    device.deploy()
    return sim, device, everything


def _apply(kind, gateway):
    if kind == "deploy" and gateway.deployed_at is None:
        gateway.deploy()
    elif kind == "fail":
        gateway.fail()
    elif kind == "retire":
        gateway.retire()
    elif kind == "degrade" and gateway.alive:
        gateway.force_degrade()
    elif kind == "restore":
        gateway.restore_degrade()


def _received(gateways):
    return [g.packets_received for g in gateways]


def _report_outcome(device, gateways):
    """Run the real duty cycle; return ``(cause, gateway name)``."""
    before = _received(gateways)
    radio_lost, no_gateway = device.radio_lost, device.no_gateway
    device._report()
    if device.no_gateway != no_gateway:
        return ("no-gateway", None)
    if device.radio_lost != radio_lost:
        return ("radio", None)
    heard = [g.name for g, b, a in zip(gateways, before, _received(gateways)) if a != b]
    assert len(heard) == 1
    return ("heard", heard[0])


def _reference_outcome(device):
    """The direct loop the link table replaces."""
    rng = device.sim.rng("radio")
    tried = 0
    for gateway in device.candidate_gateways():
        if not gateway.hears():
            continue
        tried += 1
        distance = max(device.position.distance_to(gateway.position), 1.0)
        if attempt_delivery(device.spec, gateway.path_loss, distance, rng):
            gateway.receive(device.name, credit_units(device.payload_bytes))
            return ("heard", gateway.name)
        if tried == MAX_LINKS_TRIED:
            break
    return ("radio", None) if tried else ("no-gateway", None)


_steps = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.integers(min_value=0, max_value=len(_INDEX_POSITIONS) + 1),
    ),
    max_size=80,
)


#: Positions in the steps' gateway list (index gateways, LoRa, static).
_LORA = len(_INDEX_POSITIONS)
_STATIC = _LORA + 1


@given(steps=_steps, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
# The index's nearest four include the LoRa gateway, so while it hears
# the device sees only three index gateways.  With it gone, a full
# table's last entry stops hearing: a change exactly at the reach.
@example(
    steps=[("fail", _LORA), ("fail", _STATIC), ("report", 0), ("fail", 3)],
    seed=1,
)
# A table with room for one more: a deploy beyond its last entry.
@example(
    steps=[("fail", k) for k in (_LORA, _STATIC, 0, 1, 2)]
    + [("report", 0), ("deploy", 8)],
    seed=2,
)
# A deploy nearer than every entry of a full table.
@example(steps=[("report", 0), ("deploy", 6)], seed=3)
# The static dependency stops hearing; the index logs nothing.
@example(steps=[("report", 0), ("degrade", _STATIC)], seed=4)
def test_link_table_duty_cycle_matches_reference_loop(steps, seed):
    sim, device, gateways = _world(seed)
    ref_sim, ref_device, ref_gateways = _world(seed)
    outcomes = []
    for kind, k in steps + [("report", 0)]:
        if kind == "report":
            got = _report_outcome(device, gateways)
            assert got == _reference_outcome(ref_device)
            assert device._links == device.fresh_links()
            outcomes.append(got[0])
        else:
            _apply(kind, gateways[k])
            _apply(kind, ref_gateways[k])
        assert sim.topology_version == ref_sim.topology_version
    assert (
        sim.rng("radio").bit_generator.state
        == ref_sim.rng("radio").bit_generator.state
    )
    assert device.attempts == len(outcomes)


def test_world_exercises_every_outcome():
    """The layout is not vacuous: one seed's reports see all three causes."""
    sim, device, gateways = _world(7)
    for _ in range(40):
        device._report()
    for gateway in gateways:
        gateway.fail()
    device._report()
    assert device.delivered > 0
    assert device.radio_lost > 0
    assert device.no_gateway == 1
    assert len(device._links) == 0
