"""Tests for repro.city.scenario: the city-scale fleet builder.

Construction, config validation, and small-run smoke tests for both
execution engines.  The bit-for-bit engine equivalence proof lives in
``tests/experiment/test_city_equivalence.py``; here we only check the
scenario wires the advertised pieces together.
"""

import pytest

from repro.city.scenario import (
    ENGINES,
    CityScaleConfig,
    CityScenario,
    build_city,
)
from repro.core import units


def small_config(**overrides):
    defaults = dict(
        seed=7,
        device_count=30,
        horizon=units.days(7.0),  # fleet_summary needs >= one uptime week
        batches=4,
        engine="cohort",
    )
    defaults.update(overrides)
    return CityScaleConfig(**defaults)


class TestCityScaleConfig:
    def test_defaults_valid(self):
        config = CityScaleConfig()
        assert config.engine in ENGINES
        assert config.device_count == 1000

    @pytest.mark.parametrize(
        "overrides",
        [
            {"device_count": 0},
            {"horizon": 0.0},
            {"report_interval": 0.0},
            {"initial_fill": 1.5},
            {"device_spacing_m": 0.0},
            {"gateway_spacing_m": -1.0},
            {"batches": 0},
            {"engine": "vectorized"},
        ],
        ids=lambda d: next(iter(d)),
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            CityScaleConfig(**overrides)

    def test_rejects_fleet_larger_than_asset_stock(self):
        config = CityScaleConfig(asset="streetlight", device_count=10**9)
        with pytest.raises(ValueError):
            CityScenario(config)


class TestCityScenarioConstruction:
    def test_rollout_plan_matches_requested_fleet(self):
        city = CityScenario(small_config())
        assert city.plan.fleet_size == 30
        assert city.plan.asset.name == "streetlight"
        assert len(city.device_positions) == 30

    def test_cohort_engine_builds_batches(self):
        city = CityScenario(small_config(batches=4))
        assert len(city.cohorts) == 4
        assert sum(c.count for c in city.cohorts) == 30
        assert not city.devices
        # Batch sizes differ by at most one and follow member order.
        sizes = [c.count for c in city.cohorts]
        assert max(sizes) - min(sizes) <= 1

    def test_per_entity_engine_builds_devices(self):
        city = CityScenario(small_config(engine="per-entity"))
        assert len(city.devices) == 30
        assert not city.cohorts

    def test_more_batches_than_devices_skips_empty(self):
        city = CityScenario(small_config(device_count=3, batches=24))
        assert len(city.cohorts) == 3
        assert sum(c.count for c in city.cohorts) == 3

    def test_gateway_grid_covers_device_extent(self):
        city = CityScenario(small_config())
        # Every device must sit within the planning coverage radius of
        # some gateway, or the layout defeats its own purpose.
        from repro.radio.link import coverage_radius_m

        radius = coverage_radius_m(city.spec, city.path_loss, 0.5)
        for position in city.device_positions:
            nearest = min(
                position.distance_to(g.position) for g in city.gateways
            )
            assert nearest <= radius

    def test_endpoint_runs_aggregate_only(self):
        city = build_city(small_config())
        city.run()
        endpoint = city.endpoint
        # Week summaries count every arrival; no per-packet log exists.
        report = endpoint.weekly_uptime(0.0, city.sim.now + 1.0)
        assert report.total_deliveries == endpoint.delivered_count > 0
        assert not hasattr(endpoint, "deliveries")


class TestCityScenarioRun:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_small_run_delivers(self, engine):
        city = build_city(small_config(engine=engine))
        summary = city.run()
        assert summary["engine"] == engine
        assert summary["attempts"] > 0
        assert summary["delivered"] > 0
        # A device counts "delivered" only when the endpoint recorded
        # the packet, so the two ends of the chain must agree.
        assert summary["endpoint_delivered"] == summary["delivered"]
        accounted = (
            summary["delivered"]
            + summary["energy_denied"]
            + summary["no_gateway"]
            + summary["radio_lost"]
        )
        assert accounted <= summary["attempts"]
        assert 0 <= summary["devices_alive_at_end"] <= 30

    def test_run_under_strict_auditor(self):
        from repro.faults.auditor import InvariantAuditor

        city = build_city(small_config())
        auditor = InvariantAuditor(city.sim, every=5, strict=True).install()
        city.run()
        assert auditor.audits_run > 0
