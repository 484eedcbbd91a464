"""Structural risk analysis of deployment hierarchies.

Finds the single points of failure the takeaways warn about: entities
whose loss disconnects devices from the cloud (graph articulation
analysis over the dependency DAG), plus Monte-Carlo correlated-failure
studies (an AS outage is one draw that removes many gateways at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from ..core.hierarchy import Hierarchy

if TYPE_CHECKING:
    import networkx as nx


def dependency_graph(hierarchy: Hierarchy) -> nx.DiGraph:
    """The hierarchy as a directed graph, edges pointing upstream.

    Needs networkx, the ``analysis`` extra; nothing else in the package
    does, so it is imported here rather than with the module.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for entity in hierarchy.entities:
        graph.add_node(entity.name, tier=entity.TIER, alive=entity.alive)
    for entity in hierarchy.entities:
        for upstream in entity.depends_on:
            graph.add_edge(entity.name, upstream.name)
    return graph


@dataclass(frozen=True)
class SinglePointOfFailure:
    """An entity whose loss alone strands devices."""

    name: str
    tier: str
    stranded_devices: int


def single_points_of_failure(hierarchy: Hierarchy) -> List[SinglePointOfFailure]:
    """Every non-device entity whose individual loss strands >= 1 device.

    Uses :meth:`Hierarchy.blast_radius`, so the answer respects current
    liveness (an already-dead backup does not count as redundancy).
    Sorted by blast radius, largest first.
    """
    results = []
    for entity in hierarchy.entities:
        if entity.TIER == "device" or not entity.alive:
            continue
        radius = len(hierarchy.blast_radius(entity))
        if radius > 0:
            results.append(
                SinglePointOfFailure(
                    name=entity.name, tier=entity.TIER, stranded_devices=radius
                )
            )
    results.sort(key=lambda s: -s.stranded_devices)
    return results


def redundancy_histogram(hierarchy: Hierarchy) -> Dict[int, int]:
    """How many devices have 0, 1, 2, ... live upstream gateways.

    Devices in the 0/1 buckets violate the §3.1 takeaway in practice:
    they depend on a specific surviving instance.
    """
    histogram: Dict[int, int] = {}
    for device in hierarchy.tier("device"):
        live_paths = sum(1 for up in device.depends_on if up.effective_alive())
        histogram[live_paths] = histogram.get(live_paths, 0) + 1
    return histogram


@dataclass(frozen=True)
class CorrelatedFailureResult:
    """Outcome of removing one failure domain."""

    domain: str
    members: int
    devices_before: int
    devices_after: int

    @property
    def devices_lost(self) -> int:
        """Reachable devices lost to this domain outage."""
        return self.devices_before - self.devices_after

    @property
    def loss_fraction(self) -> float:
        """Share of previously-reachable devices lost."""
        if self.devices_before == 0:
            return 0.0
        return self.devices_lost / self.devices_before


def correlated_failure(
    hierarchy: Hierarchy, domain_tag: str, domain_value: str
) -> CorrelatedFailureResult:
    """Hypothetically fail every entity tagged ``domain_tag=domain_value``
    (e.g. ``asn=7922``) and measure stranded devices.

    Entities are restored afterwards; this is a what-if, not a mutation.
    """
    from ..core.entity import EntityState

    members = [
        e
        for e in hierarchy.entities
        if e.tags.get(domain_tag) == domain_value and e.alive
    ]
    before = len(hierarchy.reachable_devices())
    saved = [(e, e.state) for e in members]
    for entity, __ in saved:
        entity.state = EntityState.FAILED
    # Bump topology_version around the counterfactual window (SL011): a
    # version-keyed cache built against the hypothetically-failed domain
    # must be invalidated again when the real states come back.
    if members:
        members[0].sim.topology_version += 1
    try:
        after = len(hierarchy.reachable_devices())
    finally:
        for entity, state in saved:
            entity.state = state
        if members:
            members[0].sim.topology_version += 1
    return CorrelatedFailureResult(
        domain=f"{domain_tag}={domain_value}",
        members=len(members),
        devices_before=before,
        devices_after=after,
    )


def worst_domains(
    hierarchy: Hierarchy, domain_tag: str = "asn", top: int = 5
) -> List[CorrelatedFailureResult]:
    """The ``top`` failure domains by device loss — §4.3's deferred
    backhaul-concentration analysis, run over a live topology."""
    values = sorted(
        {
            e.tags[domain_tag]
            for e in hierarchy.entities
            if domain_tag in e.tags
        }
    )
    results = [correlated_failure(hierarchy, domain_tag, value) for value in values]
    results.sort(key=lambda r: -r.devices_lost)
    return results[:top]
