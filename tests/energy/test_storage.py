"""Tests for repro.energy.storage."""

import math

import pytest

from repro.core import units
from repro.energy import Battery, Capacitor, StorageError


class TestCapacitor:
    def test_charge_clips_at_capacity(self):
        cap = Capacitor(capacity_j=1.0)
        absorbed = cap.charge(2.0)
        assert absorbed == 1.0
        assert cap.stored_j == 1.0

    def test_discharge_success_and_failure(self):
        cap = Capacitor(capacity_j=1.0, stored_j=0.5)
        assert cap.discharge(0.3)
        assert cap.stored_j == pytest.approx(0.2)
        assert not cap.discharge(0.5)
        assert cap.stored_j == pytest.approx(0.2)  # unchanged on refusal

    def test_leakage(self):
        cap = Capacitor(capacity_j=1.0, stored_j=1.0, leakage_per_day=0.1)
        cap.leak(units.days(1.0))
        assert cap.stored_j == pytest.approx(0.9)
        cap.leak(units.days(2.0))
        assert cap.stored_j == pytest.approx(0.9 * 0.81)

    def test_reused_leak_factor_is_the_same_pow(self):
        # The factor is reused while (leakage_per_day, dt) repeats, so a
        # changed dt or a changed leakage rate must recompute it exactly.
        cap = Capacitor(capacity_j=1.0, stored_j=1.0, leakage_per_day=0.01)
        expected = 1.0
        for leakage, dt in [(0.01, 21600.0)] * 3 + [(0.01, 3600.0), (0.2, 3600.0)]:
            cap.leakage_per_day = leakage
            cap.leak(dt)
            expected *= (1.0 - leakage) ** units.as_days(dt)
            assert cap.stored_j == expected

    def test_no_cycle_wear(self):
        cap = Capacitor(capacity_j=1.0)
        for _ in range(10000):
            cap.charge(1.0)
            cap.discharge(1.0)
        assert cap.usable_capacity_j == 1.0  # capacitors do not fade

    def test_fill_fraction(self):
        cap = Capacitor(capacity_j=2.0, stored_j=0.5)
        assert cap.fill_fraction == 0.25

    def test_validation(self):
        with pytest.raises(StorageError):
            Capacitor(capacity_j=0.0)
        with pytest.raises(StorageError):
            Capacitor(capacity_j=1.0, leakage_per_day=1.0)
        with pytest.raises(StorageError):
            Capacitor(capacity_j=1.0, stored_j=2.0)
        cap = Capacitor(capacity_j=1.0)
        with pytest.raises(StorageError):
            cap.charge(-1.0)
        with pytest.raises(StorageError):
            cap.discharge(-1.0)
        for dt in (-1.0, math.nan):
            with pytest.raises(StorageError):
                cap.leak(dt)


class TestBattery:
    def test_cycle_wear_fades_capacity(self):
        battery = Battery(capacity_j=100.0, cycle_life=100.0)
        battery.charge(100.0)
        for _ in range(50):  # 50 full cycle equivalents
            battery.discharge(100.0)
            battery.charge(100.0)
        assert battery.health < 1.0
        assert battery.usable_capacity_j < 100.0

    def test_calendar_fade(self):
        battery = Battery(capacity_j=100.0, calendar_fade_per_year=0.02)
        battery.age(units.years(10.0))
        assert battery.health == pytest.approx(0.8)

    def test_dead_at_end_of_life(self):
        battery = Battery(
            capacity_j=100.0, calendar_fade_per_year=0.02, end_of_life_fraction=0.7
        )
        battery.age(units.years(16.0))  # health 0.68 < 0.7
        assert battery.dead
        assert battery.charge(10.0) == 0.0
        assert not battery.discharge(1.0)

    def test_paper_conventional_wisdom_window(self):
        # Default battery dies from calendar fade alone within 10-20 yr.
        battery = Battery()
        years = 0.0
        while not battery.dead and years < 30.0:
            battery.age(units.years(1.0))
            years += 1.0
        assert 10.0 <= years <= 20.0

    def test_stored_clamped_to_faded_capacity(self):
        battery = Battery(capacity_j=100.0)
        battery.charge(100.0)
        battery.age(units.years(5.0))
        assert battery.stored_j <= battery.usable_capacity_j

    def test_self_discharge(self):
        battery = Battery(capacity_j=100.0, calendar_fade_per_year=0.0)
        battery.charge(100.0)
        battery.leak(units.months(1.0))
        assert battery.stored_j == pytest.approx(98.0, rel=0.01)

    def test_full_cycle_equivalents(self):
        battery = Battery(capacity_j=100.0)
        battery.charge(100.0)
        battery.discharge(50.0)
        assert battery.full_cycle_equivalents == pytest.approx(0.5)

    def test_fill_fraction_of_faded_capacity(self):
        battery = Battery(capacity_j=100.0)
        battery.charge(100.0)
        battery.age(units.years(5.0))
        assert battery.fill_fraction == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(StorageError):
            Battery(capacity_j=0.0)
        with pytest.raises(StorageError):
            Battery(cycle_life=0.0)
        with pytest.raises(StorageError):
            Battery(end_of_life_fraction=1.0)
        battery = Battery()
        with pytest.raises(StorageError):
            battery.charge(-1.0)
        with pytest.raises(StorageError):
            battery.discharge(-1.0)
        for dt in (-1.0, math.nan):
            with pytest.raises(StorageError):
                battery.age(dt)
            with pytest.raises(StorageError):
                battery.leak(dt)
