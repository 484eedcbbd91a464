"""Tests for the management-layer integrations in the 50-year harness:
succession-driven renewal misses and protocol-based gateway swaps."""

from dataclasses import replace

import pytest

from repro.core import units
from repro.experiment import FiftyYearConfig, FiftyYearExperiment, run_scenario


def config(**overrides):
    base = FiftyYearConfig(
        seed=5,
        horizon=units.years(12.0),
        n_154_devices=2,
        n_lora_devices=0,
        initial_hotspots=0,
        hotspot_arrivals_per_year=0.0,
        wallet_credits=0,
        n_owned_gateways=2,
        report_interval=units.days(2.0),
        renewal_miss_probability=0.0,
    )
    return replace(base, **overrides)


class TestSuccessionIntegration:
    def test_succession_model_attached(self):
        experiment = FiftyYearExperiment(
            config(model_succession=True, renewal_miss_probability=0.02)
        )
        experiment.build()
        assert experiment.succession is not None
        assert experiment.endpoint.miss_probability_fn is not None
        assert len(experiment.succession.custodians) >= 1

    def test_disabled_by_default(self):
        experiment = FiftyYearExperiment(config())
        experiment.build()
        assert experiment.succession is None
        assert experiment.endpoint.miss_probability_fn is None

    def test_roster_in_diary(self):
        result = FiftyYearExperiment(
            config(model_succession=True, horizon=units.years(30.0))
        ).run()
        assert "custodian-1" in result.diary.render()

    def test_staff_turnover_scenario_runs(self):
        result = run_scenario("staff-turnover", seed=3, horizon=units.years(2.0))
        assert result.overall.weeks > 0

    def test_miss_fn_overrides_constant(self, sim):
        from repro.net import CloudEndpoint

        cloud = CloudEndpoint(sim, renewal_miss_probability=0.0)
        cloud.miss_probability_fn = lambda t: 1.0  # always fumble
        cloud.deploy()
        sim.run_until(units.years(11.0))
        assert sim.metrics.snapshot().counter_value(
            "net_domain_renewals_missed_total", entity=cloud.name
        ) == 1


class TestCommissioningIntegration:
    def test_replacement_logs_protocol_labor(self):
        result = FiftyYearExperiment(config(horizon=units.years(20.0))).run()
        if result.gateway_replacements == 0:
            pytest.skip("no gateway failure drawn at this seed")
        # Protocol labor (install+enroll+verify ~2h) plus configured
        # swap hours: every replacement costs more than swap hours alone.
        per_swap = (
            result.maintenance.total_hours(tier="gateway")
            / result.gateway_replacements
        )
        assert per_swap > result.config.gateway_swap_hours

    def test_migration_noted_in_diary(self):
        result = FiftyYearExperiment(config(horizon=units.years(20.0))).run()
        if result.gateway_replacements == 0:
            pytest.skip("no gateway failure drawn at this seed")
        assert "migrated" in result.diary.render()


class TestFleetGrowth:
    def test_devices_added_over_time(self):
        cfg = config(
            n_lora_devices=1,
            initial_hotspots=10,
            hotspot_arrivals_per_year=4.0,
            wallet_credits=500_000,
            device_additions_per_year=3.0,
            horizon=units.years(5.0),
        )
        result = FiftyYearExperiment(cfg).run()
        lora_arm = result.arms["helium-lora"]
        assert len(lora_arm.device_names) > 1
        assert "added device" in result.diary.render()

    def test_mixed_harvester_types(self):
        cfg = config(
            n_lora_devices=0,
            initial_hotspots=10,
            hotspot_arrivals_per_year=4.0,
            wallet_credits=500_000,
            device_additions_per_year=6.0,
            horizon=units.years(3.0),
        )
        experiment = FiftyYearExperiment(cfg)
        experiment.run()
        sources = {type(d.power.source).__name__ for d in experiment.devices_lora}
        assert len(sources) >= 2  # more than one harvester type deployed

    def test_growth_disabled_by_default(self):
        cfg = config(n_lora_devices=1, initial_hotspots=5,
                     hotspot_arrivals_per_year=1.0, wallet_credits=500_000)
        experiment = FiftyYearExperiment(cfg)
        experiment.run()
        assert len(experiment.devices_lora) == 1

    def test_growing_fleet_scenario_registered(self):
        from repro.experiment import SCENARIOS
        assert "growing-fleet" in SCENARIOS
        assert SCENARIOS["growing-fleet"](1).device_additions_per_year > 0


class TestTrustIntegration:
    def _trust_config(self, **overrides):
        base = config(
            n_lora_devices=0,
            initial_hotspots=0,
            hotspot_arrivals_per_year=0.0,
            wallet_credits=0,
            model_trust=True,
            horizon=units.years(10.0),
        )
        from dataclasses import replace as _replace
        return _replace(base, **overrides)

    def test_registry_commissions_fleet(self):
        experiment = FiftyYearExperiment(self._trust_config())
        experiment.build()
        assert experiment.trust_registry is not None
        names = {d.name for d in experiment.devices_154}
        assert names <= set(experiment.trust_registry.records)

    def test_blocklists_synced_to_gateways(self):
        experiment = FiftyYearExperiment(self._trust_config())
        result = experiment.run()
        blocked = experiment.trust_registry.blocklist_at(experiment.sim.now)
        for gateway in experiment.owned_gateways:
            if gateway.alive:
                assert gateway.blocklist == set(blocked)
        assert result.overall.weeks > 0

    def test_aged_out_fleet_goes_dark(self):
        # Force a tiny cryptoperiod window by running past it: ed25519
        # degrades at 25 yr + 15 yr acceptance -> dark after year 40.
        experiment = FiftyYearExperiment(
            self._trust_config(horizon=units.years(45.0),
                               report_interval=units.days(7.0),
                               maintain_gateways=True)
        )
        result = experiment.run()
        blocked = set(experiment.trust_registry.blocklist_at(experiment.sim.now))
        alive_names = {d.name for d in experiment.devices_154 if d.alive}
        # Any surviving device is, by year 45, untrusted and blocked.
        assert alive_names <= blocked or not alive_names

    def test_disabled_by_default(self):
        experiment = FiftyYearExperiment(config())
        experiment.build()
        assert experiment.trust_registry is None
