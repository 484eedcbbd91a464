"""Tests for repro.experiment.fifty_year (short horizons for speed)."""

import math
from dataclasses import replace

import pytest

from repro.core import units
from repro.core.policy import AttachmentPolicy
from repro.experiment import FiftyYearConfig, FiftyYearExperiment
from repro.radio.ieee802154 import MAX_PAYLOAD_BYTES
from repro.runtime import ScenarioTask


def small_config(**overrides):
    base = FiftyYearConfig(
        seed=7,
        horizon=units.years(2.0),
        n_154_devices=3,
        n_lora_devices=3,
        n_owned_gateways=2,
        initial_hotspots=15,
        report_interval=units.hours(12.0),
        renewal_miss_probability=0.0,
    )
    return replace(base, **overrides)


class TestConfigValidation:
    def test_payload_at_psdu_limit_accepted(self):
        config = small_config(payload_bytes=MAX_PAYLOAD_BYTES)
        assert config.payload_bytes == MAX_PAYLOAD_BYTES

    def test_payload_over_psdu_limit_rejected(self):
        with pytest.raises(ValueError, match="exceeds 802.15.4 PSDU"):
            small_config(payload_bytes=MAX_PAYLOAD_BYTES + 1)

    def test_lora_only_fleet_skips_psdu_check(self):
        config = small_config(n_154_devices=0, payload_bytes=MAX_PAYLOAD_BYTES + 1)
        assert config.payload_bytes == MAX_PAYLOAD_BYTES + 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 0.0),
            ("report_interval", -1.0),
            ("renewal_miss_probability", 1.5),
            ("renewal_miss_probability", -0.1),
            ("n_lora_devices", -1),
            ("initial_hotspots", -3),
            ("wallet_credits", -1),
            ("hotspot_arrivals_per_year", -0.5),
            # NaN passes every ordered check; infinity is no quantity.
            ("horizon", math.nan),
            ("horizon", math.inf),
            ("report_interval", math.inf),
            ("extent_m", math.inf),
            ("storage_j", math.nan),
            ("gateway_replace_delay", math.nan),
            ("hotspot_median_tenure_years", math.nan),
            ("hotspot_arrivals_per_year", math.inf),
            ("device_additions_per_year", math.nan),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})

    def test_scenario_task_rejects_non_finite_override_at_build(self):
        task = ScenarioTask(
            "owned-only",
            horizon=units.years(1.0),
            report_interval=units.days(7.0),
            overrides=(("storage_j", math.nan),),
        )
        with pytest.raises(ValueError, match="storage_j must be finite"):
            task.execute(1)


class TestBuild:
    def test_build_assembles_all_tiers(self):
        experiment = FiftyYearExperiment(small_config())
        experiment.build()
        assert experiment.endpoint.alive
        assert experiment.campus.alive
        assert len(experiment.owned_gateways) == 2
        assert len(experiment.devices_154) == 3
        assert len(experiment.devices_lora) == 3
        assert len(experiment.helium.live_hotspots()) == 15

    def test_double_build_rejected(self):
        experiment = FiftyYearExperiment(small_config())
        experiment.build()
        with pytest.raises(RuntimeError):
            experiment.build()

    def test_wallet_provisioned(self):
        experiment = FiftyYearExperiment(small_config())
        experiment.build()
        assert experiment.helium.wallet.balance == small_config().wallet_credits


class TestRun:
    def test_short_run_delivers_data(self):
        result = FiftyYearExperiment(small_config()).run()
        assert result.overall.uptime > 0.9
        assert result.arms["owned-802.15.4"].delivered > 0
        assert result.arms["helium-lora"].delivered > 0

    def test_devices_never_touched(self):
        # §4's top-level constraint.
        result = FiftyYearExperiment(small_config()).run()
        assert result.device_touches == 0

    def test_wallet_debited_per_lora_delivery(self):
        result = FiftyYearExperiment(small_config()).run()
        assert result.wallet.spent >= result.arms["helium-lora"].delivered

    def test_summary_lines_render(self):
        result = FiftyYearExperiment(small_config()).run()
        text = "\n".join(result.summary_lines())
        assert "overall weekly uptime" in text
        assert "helium-lora" in text
        assert "wallet" in text

    def test_run_builds_if_needed(self):
        result = FiftyYearExperiment(small_config()).run()
        assert result.overall.weeks == int(units.years(2.0) // units.WEEK)

    def test_deterministic_per_seed(self):
        a = FiftyYearExperiment(small_config()).run()
        b = FiftyYearExperiment(small_config()).run()
        assert a.overall.uptime == b.overall.uptime
        assert a.wallet.spent == b.wallet.spent

    def test_seeds_differ(self):
        a = FiftyYearExperiment(small_config(seed=1)).run()
        b = FiftyYearExperiment(small_config(seed=2)).run()
        assert (
            a.wallet.spent != b.wallet.spent
            or a.arms["owned-802.15.4"].delivered
            != b.arms["owned-802.15.4"].delivered
        )


class TestMaintenance:
    def test_gateway_replacement_over_long_horizon(self):
        # Pi-class gateways have single-digit-year MTBF; over 15 years
        # with 2 gateways we expect replacements, logged with labor.
        config = small_config(horizon=units.years(15.0), n_lora_devices=0,
                              initial_hotspots=0, report_interval=units.days(1.0))
        result = FiftyYearExperiment(config).run()
        assert result.gateway_replacements >= 1
        assert result.maintenance.total_hours() > 0.0
        assert result.maintenance.count(tier="gateway", action="replace") == (
            result.gateway_replacements
        )

    def test_unmaintained_gateways_stay_dead(self):
        config = small_config(
            horizon=units.years(15.0),
            maintain_gateways=False,
            n_lora_devices=0,
            initial_hotspots=0,
            report_interval=units.days(1.0),
        )
        experiment = FiftyYearExperiment(config)
        result = experiment.run()
        assert result.gateway_replacements == 0
        assert result.maintenance.total_hours() == 0.0

    def test_diary_records_incidents(self):
        config = small_config(horizon=units.years(15.0), n_lora_devices=0,
                              initial_hotspots=0, report_interval=units.days(1.0))
        result = FiftyYearExperiment(config).run()
        text = result.diary.render()
        assert "experiment commenced" in text
        assert "gateway" in text


class TestPolicyEffect:
    def test_instance_bound_arm_degrades(self):
        kwargs = dict(
            horizon=units.years(12.0),
            n_lora_devices=0,
            initial_hotspots=0,
            n_owned_gateways=1,
            report_interval=units.days(1.0),
        )
        good = FiftyYearExperiment(small_config(**kwargs)).run()
        bad = FiftyYearExperiment(
            small_config(attachment=AttachmentPolicy.INSTANCE_BOUND, **kwargs)
        ).run()
        good_arm = good.arms["owned-802.15.4"]
        bad_arm = bad.arms["owned-802.15.4"]
        assert bad_arm.delivery_rate <= good_arm.delivery_rate
