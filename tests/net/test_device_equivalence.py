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
(LoRa) gateway nearest of all in that index.
"""

import math

from hypothesis import given, settings
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
from repro.radio import ieee802154
from repro.radio.link import attempt_delivery
from repro.radio.lora import LoRaParameters, suburban_path_loss

#: Index gateways (802.15.4) by distance from the device at the origin:
#: all near the edge of coverage, so reports try several links.
_INDEX_DISTANCES_M = (70.0, 80.0, 88.0, 95.0, 104.0, 112.0, 125.0)
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
    for k, distance in enumerate(_INDEX_DISTANCES_M):
        angle = 2.0 * math.pi * k / len(_INDEX_DISTANCES_M)
        gateways.append(
            OwnedGateway(
                sim,
                spec=spec,
                path_loss=path_loss,
                position=Position(distance * math.cos(angle), distance * math.sin(angle)),
            )
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
    # Start with the LoRa gateway and five index gateways up: more than
    # MAX_LINKS_TRIED hearing links before any churn.
    for gateway in [lora, static] + gateways[:5]:
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
    packet = device.make_packet()
    rng = device.sim.rng("radio")
    tried = 0
    for gateway in device.candidate_gateways():
        if not gateway.hears():
            continue
        tried += 1
        distance = max(device.position.distance_to(gateway.position), 1.0)
        if attempt_delivery(device.spec, gateway.path_loss, distance, rng):
            gateway.receive(packet)
            return ("heard", gateway.name)
        if tried == MAX_LINKS_TRIED:
            break
    return ("radio", None) if tried else ("no-gateway", None)


_steps = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.integers(min_value=0, max_value=len(_INDEX_DISTANCES_M) + 1),
    ),
    max_size=80,
)


@given(steps=_steps, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_link_table_duty_cycle_matches_reference_loop(steps, seed):
    sim, device, gateways = _world(seed)
    ref_sim, ref_device, ref_gateways = _world(seed)
    outcomes = []
    for kind, k in steps + [("report", 0)]:
        if kind == "report":
            got = _report_outcome(device, gateways)
            assert got == _reference_outcome(ref_device)
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
