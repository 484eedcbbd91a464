"""Network assembly: coverage-based association and whole-system views.

``associate_by_coverage`` implements the takeaway-compliant attachment:
a device depends on *every* compatible gateway whose mean link success
clears a threshold, so losing one gateway strands nothing that another
covers.  ``Network`` bundles the entities of one deployment with its
:class:`~repro.core.hierarchy.Hierarchy` view and summary statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.engine import Simulation
from ..core.hierarchy import Hierarchy
from .backhaul import Backhaul
from .cloud import CloudEndpoint
from .device import EdgeDevice
from .gateway import Gateway
from .geometry import Position, SpatialGrid


def associate_by_coverage(
    devices: Sequence[EdgeDevice],
    gateways: Sequence[Gateway],
    min_success: float = 0.5,
    max_gateways_per_device: int = 2,
) -> Dict[str, int]:
    """Wire each device to its best in-range compatible gateways.

    Uses the deterministic (no-shadowing) link budget for planning, as a
    real site survey would.  Returns ``{device_name: attached_count}``
    where the count is the number of dependencies *actually wired* —
    gateways the device already depended on are deduplicated by
    ``add_dependency`` and are not counted again.  Devices with zero
    coverage stay unattached (and will count their reports as
    ``no_gateway`` losses).

    Gateways are indexed in a :class:`~repro.net.geometry.SpatialGrid`
    per (technology, path-loss) group, and each device range-queries at
    the closed-form coverage radius instead of scanning the full
    gateway list — O(fleet) instead of O(devices × gateways) for
    city-scale layouts.  The radius query is a provable superset of the
    qualifying set (see :func:`~repro.radio.link.coverage_radius_m`) and
    the exact ``link_budget`` threshold is re-applied per candidate, in
    input order, so the wiring is identical to the full scan.
    """
    if not 0.0 < min_success < 1.0:
        raise ValueError("min_success must be in (0, 1)")
    if max_gateways_per_device < 1:
        raise ValueError("max_gateways_per_device must be >= 1")
    from ..radio.link import coverage_radius_m, link_budget

    # Group once; grids are built lazily on first query so the cell size
    # can track the first requesting spec's coverage radius.
    groups: Dict[tuple, List[tuple]] = {}
    for index, gateway in enumerate(gateways):
        key = (gateway.technology, gateway.path_loss)
        groups.setdefault(key, []).append((index, gateway))
    grids: Dict[tuple, SpatialGrid] = {}
    radii: Dict[tuple, float] = {}

    attached: Dict[str, int] = {}
    for device in devices:
        candidates: List[tuple] = []
        for (technology, path_loss), members in groups.items():
            if technology != device.technology:
                continue
            radius_key = (device.spec, technology, path_loss)
            radius = radii.get(radius_key)
            if radius is None:
                radius = coverage_radius_m(device.spec, path_loss, min_success)
                radii[radius_key] = radius
            if radius <= 0.0:
                continue
            grid = grids.get((technology, path_loss))
            if grid is None:
                grid = SpatialGrid(cell_size_m=max(radius, 1.0))
                for pair in members:
                    position = pair[1].position
                    grid.insert(position.x, position.y, pair)
                grids[(technology, path_loss)] = grid
            # Scoring clamps distance to >= 1 m, so anything within
            # max(radius, 1) may qualify; +1 m absorbs float rounding
            # in the closed-form radius.
            candidates.extend(
                grid.query_radius(
                    device.position.x,
                    device.position.y,
                    max(radius, 1.0) + 1.0,
                )
            )
        # Merge the per-group hits back into global input order so the
        # stable success sort breaks ties exactly as the full scan did.
        candidates.sort(key=lambda pair: pair[0])
        scored = []
        for __, gateway in candidates:
            distance = max(device.position.distance_to(gateway.position), 1.0)
            budget = link_budget(device.spec, gateway.path_loss, distance)
            if budget.mean_success >= min_success:
                scored.append((budget.mean_success, gateway))
        scored.sort(key=lambda pair: -pair[0])
        wired = 0
        for __, gateway in scored[:max_gateways_per_device]:
            if gateway not in device.depends_on:
                device.add_dependency(gateway)
                wired += 1
        attached[device.name] = wired
    return attached


class GatewayIndex:
    """A spatial index over the hearing part of a gateway population.

    ``provider`` returns the population to index (a scenario's owned
    gateways, a Helium network's hotspot roster).  **Provider
    contract:** a gateway keeps its position, and gateways present at
    two calls keep their relative order (providers are filtered views
    of append-only rosters).  ``sim.topology_version`` moves on exactly
    the transitions (deploy/fail/retire/degrade/rewire) that can change
    the population or its ability to hear.

    Once per version, lazily, the index takes a *hearing snapshot*: the
    population's gateways whose :meth:`~repro.net.gateway.Gateway.hears`
    is true, in provider order.  When the snapshot differs from the
    previous one, every gateway that gained or lost hearing is appended
    to an append-only change log, whose length is the index's
    :meth:`epoch`.  A link table validated at one epoch is re-validated
    against :meth:`changes_since` that epoch (the survival rule,
    :func:`~repro.net.device.outlives`) instead of being rebuilt on
    every bump.

    ``nearest_hearing`` answers the rebuild path: the ``count`` nearest
    gateways of the snapshot, ordered by (distance², provider order).
    Its grid holds only the snapshot and is rebuilt only when a query
    follows a change.  Because ``hears()`` can only flip on a
    version-bumping transition, evaluating it at snapshot time consumes
    no randomness and never reorders a trace.
    """

    def __init__(
        self,
        sim: Simulation,
        provider: Callable[[], Sequence[Gateway]],
        cell_size_m: float,
    ) -> None:
        if cell_size_m <= 0.0:
            raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
        self.sim = sim
        self.provider = provider
        self.cell_size_m = cell_size_m
        self._grid: Optional[SpatialGrid] = None
        #: The hearing snapshot, in provider order, and the version it
        #: was taken at.
        self._hearing: List[Gateway] = []
        self._hearing_version: int = -1
        #: Every gateway whose hearing changed between two snapshots.
        self._changes: List[Gateway] = []

    def _snapshot(self) -> None:
        """Take the hearing snapshot for the current version, once."""
        version = self.sim.topology_version
        if self._hearing_version == version:
            return
        hearing = [g for g in self.provider() if g.hears()]
        previous = self._hearing
        if hearing != previous:
            after, before = set(hearing), set(previous)
            self._changes.extend(g for g in previous if g not in after)
            self._changes.extend(g for g in hearing if g not in before)
            self._hearing = hearing
            self._grid = None
        self._hearing_version = version

    def epoch(self) -> int:
        """The change log's length at the current topology version."""
        self._snapshot()
        return len(self._changes)

    def changes_since(self, epoch: int) -> List[Gateway]:
        """The gateways logged as changed since ``epoch``, oldest first.

        A table validated at ``epoch`` is validated at
        ``epoch + len(changes)`` once it has survived them.
        """
        self._snapshot()
        return self._changes[epoch:]

    def nearest_hearing(self, position: Position, count: int) -> List[Gateway]:
        """The ``count`` nearest gateways that can currently receive."""
        self._snapshot()
        grid = self._grid
        if grid is None:
            grid = SpatialGrid(self.cell_size_m)
            for gateway in self._hearing:
                grid.insert(gateway.position.x, gateway.position.y, gateway)
            self._grid = grid
        return grid.nearest(position.x, position.y, count)


@dataclass
class Network:
    """One deployment's entities plus its hierarchy view."""

    sim: Simulation
    endpoint: CloudEndpoint
    backhauls: List[Backhaul] = field(default_factory=list)
    gateways: List[Gateway] = field(default_factory=list)
    devices: List[EdgeDevice] = field(default_factory=list)
    hierarchy: Hierarchy = field(default_factory=Hierarchy)

    def register_all(self) -> None:
        """(Re)build the hierarchy view from the current entity lists."""
        self.hierarchy = Hierarchy()
        self.hierarchy.add(self.endpoint)
        self.hierarchy.extend(self.backhauls)
        self.hierarchy.extend(self.gateways)
        self.hierarchy.extend(self.devices)

    def deploy_all(self) -> None:
        """Deploy endpoint, backhauls, gateways, then devices, in order.

        Entities already deployed (e.g. Helium hotspots spawned by their
        network object) are skipped.
        """
        ordered = [self.endpoint, *self.backhauls, *self.gateways, *self.devices]
        for entity in ordered:
            if entity.deployed_at is None:
                entity.deploy()
        self.register_all()

    def delivery_summary(self) -> "DeliverySummary":
        """Aggregate loss breakdown across all devices."""
        totals = {
            "attempts": 0,
            "delivered": 0,
            "energy_denied": 0,
            "no_gateway": 0,
            "radio_lost": 0,
        }
        for device in self.devices:
            for key, value in device.loss_breakdown().items():
                totals[key] += value
        dropped_at_gateway = (
            totals["attempts"]
            - totals["delivered"]
            - totals["energy_denied"]
            - totals["no_gateway"]
            - totals["radio_lost"]
        )
        return DeliverySummary(
            attempts=totals["attempts"],
            delivered=totals["delivered"],
            energy_denied=totals["energy_denied"],
            no_gateway=totals["no_gateway"],
            radio_lost=totals["radio_lost"],
            dropped_at_gateway=dropped_at_gateway,
        )

    def alive_counts(self) -> Dict[str, int]:
        """Entities alive per tier, for quick health checks."""
        return {
            "device": sum(1 for d in self.devices if d.alive),
            "gateway": sum(1 for g in self.gateways if g.alive),
            "backhaul": sum(1 for b in self.backhauls if b.alive),
            "cloud": 1 if self.endpoint.alive else 0,
        }


@dataclass(frozen=True)
class DeliverySummary:
    """End-to-end packet accounting over a run."""

    attempts: int
    delivered: int
    energy_denied: int
    no_gateway: int
    radio_lost: int
    dropped_at_gateway: int

    @property
    def delivery_rate(self) -> float:
        """Delivered / attempted; NaN when nothing was ever attempted.

        Returning 0.0 would conflate "never scheduled" with "always
        failed" and drag down fleet-mean aggregates for late-deployed
        cohorts — callers averaging across summaries must skip NaN
        entries (``math.isnan``) instead of folding them in as zeros.
        """
        if self.attempts == 0:
            return math.nan
        return self.delivered / self.attempts
