"""Property tests for the spatial index and grid-backed association.

The city-scale refactor swapped O(devices × gateways) scans for
:class:`~repro.net.geometry.SpatialGrid` queries on the promise that the
results are *identical*, not approximately so.  These tests check that
promise against brute force on randomized layouts, plus regressions for
two accounting bugs the refactor fixed: ``associate_by_coverage``
counting dependencies it never wired, and ``INSTANCE_BOUND`` devices
silently rebinding past a non-gateway first dependency.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.core.engine import Simulation
from repro.core.policy import AttachmentPolicy
from repro.net import EdgeDevice, OwnedGateway, associate_by_coverage
from repro.net.geometry import Position, SpatialGrid
from repro.radio import ieee802154
from repro.radio.link import link_budget

# Coordinates snap sub-nanometre magnitudes to zero: below ~1e-162 the
# squared-distance metric underflows to exactly 0.0, making a point at a
# *nonzero* offset "within" a zero radius by the dx²+dy² metric while its
# linear coordinate still lands in a neighbouring cell.  Deployments are
# metres-scale; production queries use radius >= 1 m.
_axis = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-9 else v
)
coordinates = st.tuples(_axis, _axis)


class TestSpatialGridProperties:
    @given(
        points=st.lists(coordinates, min_size=0, max_size=60),
        query=coordinates,
        radius=st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
        cell=st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_query_radius_matches_brute_force(self, points, query, radius, cell):
        grid = SpatialGrid(cell_size_m=cell)
        for index, (x, y) in enumerate(points):
            grid.insert(x, y, index)
        qx, qy = query
        expected = [
            index
            for index, (x, y) in enumerate(points)
            if (x - qx) ** 2 + (y - qy) ** 2 <= radius * radius
        ]
        assert grid.query_radius(qx, qy, radius) == expected

    @given(
        points=st.lists(coordinates, min_size=0, max_size=60),
        query=coordinates,
        count=st.integers(min_value=1, max_value=10),
        cell=st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_nearest_matches_brute_force(self, points, query, count, cell):
        grid = SpatialGrid(cell_size_m=cell)
        for index, (x, y) in enumerate(points):
            grid.insert(x, y, index)
        qx, qy = query
        ranked = sorted(
            ((x - qx) ** 2 + (y - qy) ** 2, index)
            for index, (x, y) in enumerate(points)
        )
        expected = [index for __, index in ranked[:count]]
        assert grid.nearest(qx, qy, count) == expected


def full_scan_expectation(devices, gateways, min_success, max_per_device):
    """The pre-grid reference algorithm: score every (device, gateway)
    pair with the deterministic link budget, keep qualifiers, stable-sort
    by success descending, and wire the top ``max_per_device``."""
    expected_wiring = {}
    for device in devices:
        scored = []
        for gateway in gateways:
            if gateway.technology != device.technology:
                continue
            distance = max(device.position.distance_to(gateway.position), 1.0)
            budget = link_budget(device.spec, gateway.path_loss, distance)
            if budget.mean_success >= min_success:
                scored.append((budget.mean_success, gateway))
        scored.sort(key=lambda pair: -pair[0])
        expected_wiring[device.name] = [g for __, g in scored[:max_per_device]]
    return expected_wiring


class TestGridAssociationEquivalence:
    @given(
        device_points=st.lists(coordinates, min_size=1, max_size=12),
        gateway_points=st.lists(coordinates, min_size=1, max_size=12),
        max_per_device=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_full_scan_on_random_layouts(
        self, device_points, gateway_points, max_per_device
    ):
        sim = Simulation(seed=0)
        spec = ieee802154.default_spec()
        path_loss = ieee802154.urban_path_loss()
        devices = [
            EdgeDevice(
                sim,
                technology="802.15.4",
                spec=spec,
                airtime_s=ieee802154.airtime_s(24),
                report_interval=units.HOUR,
                position=Position(x, y),
            )
            for x, y in device_points
        ]
        gateways = [
            OwnedGateway(sim, spec=spec, path_loss=path_loss, position=Position(x, y))
            for x, y in gateway_points
        ]
        expected = full_scan_expectation(devices, gateways, 0.5, max_per_device)
        attached = associate_by_coverage(
            devices, gateways, max_gateways_per_device=max_per_device
        )
        for device in devices:
            want = expected[device.name]
            assert attached[device.name] == len(want)
            assert list(device.depends_on) == want


class TestWiredCountRegression:
    """Satellite fix: the return value counts dependencies *wired*, not
    candidates considered — pre-existing links must not be recounted."""

    def test_preexisting_dependency_not_recounted(self, sim):
        spec = ieee802154.default_spec()
        path_loss = ieee802154.urban_path_loss()
        device = EdgeDevice(
            sim,
            technology="802.15.4",
            spec=spec,
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.HOUR,
            position=Position(0, 0),
        )
        near = OwnedGateway(sim, spec=spec, path_loss=path_loss, position=Position(5, 0))
        mid = OwnedGateway(sim, spec=spec, path_loss=path_loss, position=Position(20, 0))
        device.add_dependency(near)  # commissioned before the survey
        attached = associate_by_coverage(
            [device], [near, mid], max_gateways_per_device=2
        )
        assert attached[device.name] == 1  # only `mid` was newly wired
        assert list(device.depends_on) == [near, mid]

    def test_rerun_is_idempotent_and_counts_zero(self, sim):
        spec = ieee802154.default_spec()
        path_loss = ieee802154.urban_path_loss()
        device = EdgeDevice(
            sim,
            technology="802.15.4",
            spec=spec,
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.HOUR,
            position=Position(0, 0),
        )
        gateway = OwnedGateway(
            sim, spec=spec, path_loss=path_loss, position=Position(5, 0)
        )
        first = associate_by_coverage([device], [gateway])
        second = associate_by_coverage([device], [gateway])
        assert first[device.name] == 1
        assert second[device.name] == 0
        assert list(device.depends_on) == [gateway]


class TestInstanceBoundTruncationRegression:
    """Satellite fix: INSTANCE_BOUND means bound to the literal first
    dependency.  If that instance is incompatible (or not a gateway at
    all), the device is stranded — it must not silently rebind to a
    later, compatible dependency."""

    def _device(self, sim):
        return EdgeDevice(
            sim,
            technology="802.15.4",
            spec=ieee802154.default_spec(),
            airtime_s=ieee802154.airtime_s(24),
            report_interval=units.HOUR,
            position=Position(0, 0),
            attachment=AttachmentPolicy.INSTANCE_BOUND,
        )

    def test_non_gateway_first_dependency_strands(self, sim):
        from repro.net import CampusBackhaul, CloudEndpoint

        endpoint = CloudEndpoint(sim)
        backhaul = CampusBackhaul(sim)
        backhaul.add_dependency(endpoint)
        gateway = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(5, 0),
        )
        gateway.add_dependency(backhaul)
        device = self._device(sim)
        device.add_dependency(backhaul)  # commissioning mistake
        device.add_dependency(gateway)
        for entity in (endpoint, backhaul, gateway, device):
            entity.deploy()
        assert device.candidate_gateways() == []
        sim.run_until(units.days(1.0))
        assert device.delivered == 0
        assert device.no_gateway == device.attempts

    def test_incompatible_technology_first_dependency_strands(self, sim):
        from repro.net import ThirdPartyGateway
        from repro.radio.lora import LoRaParameters, suburban_path_loss

        lora_gw = ThirdPartyGateway(
            sim,
            spec=LoRaParameters().spec(),
            path_loss=suburban_path_loss(),
            position=Position(5, 0),
        )
        compatible = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(5, 0),
        )
        device = self._device(sim)
        device.add_dependency(lora_gw)
        device.add_dependency(compatible)
        assert device.candidate_gateways() == []

    def test_compatible_first_dependency_still_works(self, sim):
        gateway = OwnedGateway(
            sim,
            spec=ieee802154.default_spec(),
            path_loss=ieee802154.urban_path_loss(),
            position=Position(5, 0),
        )
        device = self._device(sim)
        device.add_dependency(gateway)
        assert device.candidate_gateways() == [gateway]
