"""Tests for repro.energy.harvester."""

import math

import pytest

from repro.core import units
from repro.energy import (
    Capacitor,
    CathodicProtectionSource,
    HarvestingSystem,
    TaskProfile,
)


def make_system(power_w=500e-6, capacity=2.0, stored=1.0, **kwargs):
    return HarvestingSystem(
        source=CathodicProtectionSource(nominal_power_w=power_w, noise_fraction=0.0),
        storage=Capacitor(capacity_j=capacity, stored_j=stored),
        **kwargs,
    )


class TestStep:
    def test_harvest_accumulates(self, rng):
        system = make_system(stored=0.0)
        system.step(units.HOUR, rng)
        expected = 500e-6 * 3600 * 0.8  # efficiency-scaled
        assert system.storage.stored_j == pytest.approx(expected, rel=0.05)

    def test_zero_dt_noop(self, rng):
        system = make_system()
        before = system.storage.stored_j
        system.step(0.0, rng)
        assert system.storage.stored_j == before

    def test_negative_dt_rejected(self, rng):
        for dt in (-1.0, math.nan):
            with pytest.raises(ValueError):
                make_system().step(dt, rng)

    def test_sleep_power_drains(self, rng):
        system = make_system(power_w=0.0, stored=1.0)
        system.step(units.DAY, rng)
        assert system.storage.stored_j < 1.0

    def test_starved_system_browns_out(self, rng):
        system = make_system(power_w=0.0, capacity=0.01, stored=0.01)
        system.profile = TaskProfile(sleep_power_w=1e-3)
        for _ in range(30):
            system.step(units.HOUR, rng)
        assert system.browned_out
        assert system.brownouts >= 1


class TestTransmit:
    def test_transmit_debits_storage(self, rng):
        system = make_system(stored=1.0)
        before = system.storage.stored_j
        assert system.try_transmit(airtime_s=0.0014)
        assert system.storage.stored_j < before

    def test_transmit_denied_when_empty(self, rng):
        system = make_system(power_w=0.0, stored=0.0)
        assert not system.try_transmit(airtime_s=0.0014)
        assert system.browned_out

    def test_brownout_recovery_pays_startup_cost(self, rng):
        system = make_system(power_w=0.0, stored=0.0)
        system.try_transmit(0.0014)  # enter brownout
        system.storage.charge(1.0)
        before = system.storage.stored_j
        assert system.try_transmit(0.0014)
        cost = before - system.storage.stored_j
        assert cost > system.profile.cycle_energy(0.0014)

    def test_recovery_records_duration(self, rng):
        system = make_system(power_w=200e-6, capacity=0.5, stored=0.0)
        system.try_transmit(0.0014)
        assert system.browned_out
        for _ in range(48):
            system.step(units.HOUR, rng)
            system._maybe_recover()
        assert not system.browned_out
        assert system.mean_recovery_time > 0.0


class TestDutyCycle:
    def test_healthy_system_full_delivery(self, rng):
        system = make_system()
        result = system.simulate_duty_cycle(
            units.HOUR, 0.0014, units.days(60.0), rng
        )
        assert result.success_rate == 1.0
        assert result.brownouts == 0

    def test_starved_system_partial_delivery(self, rng):
        # A source far below demand: most cycles are energy-denied.
        system = make_system(power_w=1e-6, capacity=0.05, stored=0.05)
        system.profile = TaskProfile(sample_energy_j=5e-3)
        result = system.simulate_duty_cycle(
            units.HOUR, 0.0014, units.days(30.0), rng
        )
        assert 0.0 <= result.success_rate < 0.5
        assert result.brownouts >= 1

    def test_validation(self, rng):
        system = make_system()
        with pytest.raises(ValueError):
            system.simulate_duty_cycle(0.0, 0.001, units.DAY, rng)
        with pytest.raises(ValueError):
            system.simulate_duty_cycle(units.HOUR, 0.001, 0.0, rng)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HarvestingSystem(
                source=CathodicProtectionSource(),
                storage=Capacitor(capacity_j=1.0),
                conversion_efficiency=0.0,
            )
        with pytest.raises(ValueError):
            HarvestingSystem(
                source=CathodicProtectionSource(),
                storage=Capacitor(capacity_j=1.0),
                brownout_threshold=1.0,
            )
