"""Planar geometry for deployments.

Positions are metres on a local tangent plane — city-scale deployments
do not need geodesy.  ``Grid`` generates the regular street-furniture
layouts (poles every ~50 m along blocks) that city generators use.
``SpatialGrid`` is the uniform-bucket index that turns the O(devices ×
gateways) coverage scans into range queries at city fleet sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np


@dataclass(frozen=True)
class Position:
    """A point on the deployment plane, metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_sq_to(self, other: "Position") -> float:
        """Squared Euclidean distance in metres².

        Monotone in :meth:`distance_to`, so it orders points identically
        while skipping the square root — use it for nearest-first sorts
        and nearest-neighbour selection on hot paths.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


ORIGIN = Position(0.0, 0.0)


def grid_positions(
    count: int, spacing_m: float = 50.0, jitter_m: float = 0.0, rng=None
) -> List[Position]:
    """``count`` positions on a near-square grid with optional jitter.

    Street furniture (poles, lights) is regularly spaced; jitter models
    the irregularity of real blocks.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if spacing_m <= 0.0:
        raise ValueError(f"spacing_m must be positive, got {spacing_m}")
    side = math.ceil(math.sqrt(count))
    positions = []
    for index in range(count):
        row, col = divmod(index, side)
        x = col * spacing_m
        y = row * spacing_m
        if jitter_m > 0.0:
            if rng is None:
                raise ValueError("jitter requires an rng")
            x += float(rng.uniform(-jitter_m, jitter_m))
            y += float(rng.uniform(-jitter_m, jitter_m))
        positions.append(Position(x, y))
    return positions


def uniform_positions(count: int, extent_m: float, rng) -> List[Position]:
    """``count`` positions uniform over an ``extent_m`` square."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if extent_m <= 0.0:
        raise ValueError(f"extent_m must be positive, got {extent_m}")
    xs = rng.uniform(0.0, extent_m, size=count)
    ys = rng.uniform(0.0, extent_m, size=count)
    return [Position(float(x), float(y)) for x, y in zip(xs, ys)]


class SpatialGrid:
    """A uniform-bucket spatial index with deterministic query order.

    Items are inserted with explicit coordinates (bucket size should be
    on the order of the query radius — for gateways, the radio coverage
    radius).  Both query flavours return results in an order that is a
    pure function of the inserted sequence, never of hash iteration or
    float happenstance:

    * :meth:`query_radius` preserves insertion order — exactly what a
      brute-force filter over the inserted sequence would produce;
    * :meth:`nearest` orders by ``(squared distance, insertion index)``.

    This determinism is what lets the coverage planner and the device
    candidate path swap a full scan for an index lookup without moving a
    single RNG draw.
    """

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0.0:
            raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
        self.cell_size_m = float(cell_size_m)
        #: (cell_x, cell_y) -> [(insertion_index, x, y, item), ...]
        self._cells: dict = {}
        self._count = 0
        self._min_cx = 0
        self._max_cx = 0
        self._min_cy = 0
        self._max_cy = 0

    def __len__(self) -> int:
        return self._count

    def _cell_of(self, x: float, y: float):
        cell = self.cell_size_m
        return (math.floor(x / cell), math.floor(y / cell))

    def insert(self, x: float, y: float, item) -> None:
        """Add ``item`` at ``(x, y)``; insertion order is remembered."""
        cx, cy = self._cell_of(x, y)
        if self._count == 0:
            self._min_cx = self._max_cx = cx
            self._min_cy = self._max_cy = cy
        else:
            self._min_cx = min(self._min_cx, cx)
            self._max_cx = max(self._max_cx, cx)
            self._min_cy = min(self._min_cy, cy)
            self._max_cy = max(self._max_cy, cy)
        self._cells.setdefault((cx, cy), []).append(
            (self._count, float(x), float(y), item)
        )
        self._count += 1

    def query_radius(self, x: float, y: float, radius_m: float) -> List:
        """Items within ``radius_m`` of ``(x, y)``, inclusive, in
        insertion order (``dx² + dy² <= radius_m²``, the same metric a
        brute-force scan over :class:`Position` distances uses)."""
        if radius_m < 0.0:
            raise ValueError(f"radius_m must be non-negative, got {radius_m}")
        if self._count == 0:
            return []
        cell = self.cell_size_m
        lo_cx = max(math.floor((x - radius_m) / cell), self._min_cx)
        hi_cx = min(math.floor((x + radius_m) / cell), self._max_cx)
        lo_cy = max(math.floor((y - radius_m) / cell), self._min_cy)
        hi_cy = min(math.floor((y + radius_m) / cell), self._max_cy)
        radius_sq = radius_m * radius_m
        hits = []
        cells = self._cells
        for cx in range(lo_cx, hi_cx + 1):
            for cy in range(lo_cy, hi_cy + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                for index, ix, iy, item in bucket:
                    dx = ix - x
                    dy = iy - y
                    if dx * dx + dy * dy <= radius_sq:
                        hits.append((index, item))
        hits.sort(key=lambda pair: pair[0])
        return [item for __, item in hits]

    def nearest(self, x: float, y: float, count: int = 1) -> List:
        """Up to ``count`` items nearest ``(x, y)``.

        Expands square rings of cells outward until the ``count``-th
        best candidate is provably closer than anything unscanned (every
        item in ring ``r+1`` lies at least ``r * cell_size_m`` away).
        Ties in distance resolve by insertion index, so the result is
        the exact top-``count`` of the ``(distance², insertion index)``
        ordering a brute-force sort would produce.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self._count == 0:
            return []
        cell = self.cell_size_m
        cx, cy = self._cell_of(x, y)
        max_ring = max(
            abs(cx - self._min_cx),
            abs(self._max_cx - cx),
            abs(cy - self._min_cy),
            abs(self._max_cy - cy),
        )
        found = []  # (distance_sq, insertion_index, item)
        cells = self._cells
        for ring in range(max_ring + 1):
            for key in self._ring_cells(cx, cy, ring):
                bucket = cells.get(key)
                if not bucket:
                    continue
                for index, ix, iy, item in bucket:
                    dx = ix - x
                    dy = iy - y
                    found.append((dx * dx + dy * dy, index, item))
            if len(found) >= count:
                found.sort(key=lambda entry: (entry[0], entry[1]))
                # Unscanned items are at distance >= ring * cell; a
                # strict comparison keeps exact-boundary ties honest.
                horizon = ring * cell
                if found[count - 1][0] < horizon * horizon:
                    break
        found.sort(key=lambda entry: (entry[0], entry[1]))
        return [item for __, __, item in found[:count]]

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int):
        if ring == 0:
            yield (cx, cy)
            return
        for gx in range(cx - ring, cx + ring + 1):
            yield (gx, cy - ring)
            yield (gx, cy + ring)
        for gy in range(cy - ring + 1, cy + ring):
            yield (cx - ring, gy)
            yield (cx + ring, gy)


def centroid(positions: List[Position]) -> Position:
    """Mean position."""
    if not positions:
        raise ValueError("centroid of empty position list")
    xs = np.mean([p.x for p in positions])
    ys = np.mean([p.y for p in positions])
    return Position(float(xs), float(ys))
