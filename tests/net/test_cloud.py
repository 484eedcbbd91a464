"""Tests for repro.net.cloud."""

import pytest

from repro.core import units
from repro.net import MAX_DOMAIN_LEASE, CloudEndpoint


class TestDelivery:
    def test_deliver_records(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        assert cloud.deliver("dev-1", "gw", "bh")
        assert cloud.delivered_count == 1
        assert cloud.weekly_uptime(0.0, units.WEEK).total_deliveries == 1
        assert cloud.per_device_last["dev-1"] == 0.0

    def test_dead_endpoint_refuses(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        cloud.fail()
        assert not cloud.deliver("dev-1", "gw", "bh")

    def test_device_silence(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        cloud.deliver("a", "gw", "bh")
        sim.run_until(units.days(3.0))
        silence = cloud.device_silence(sim.now)
        assert silence["a"] == pytest.approx(units.days(3.0))


class TestWeeklyUptime:
    def test_full_uptime(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        for week in range(10):
            sim.run_until(week * units.WEEK + 1.0)
            cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 10 * units.WEEK)
        assert report.uptime == 1.0
        assert report.longest_gap_weeks == 0
        assert report.meets_goal(0.99)

    def test_partial_uptime_and_gap(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        # Arrivals only in weeks 0 and 5 of a 6-week window.
        cloud.deliver("dev-1", "gw", "bh")
        sim.run_until(5 * units.WEEK + 1.0)
        cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 6 * units.WEEK)
        assert report.up_weeks == 2
        assert report.uptime == pytest.approx(2.0 / 6.0)
        assert report.longest_gap_weeks == 4
        assert not report.meets_goal()

    def test_multiple_arrivals_one_week_count_once(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        for _ in range(5):
            cloud.deliver("dev-1", "gw", "bh")
        report = cloud.weekly_uptime(0.0, 2 * units.WEEK)
        assert report.up_weeks == 1
        assert report.total_deliveries == 5

    def test_window_validation(self, sim):
        cloud = CloudEndpoint(sim)
        cloud.deploy()
        with pytest.raises(ValueError):
            cloud.weekly_uptime(10.0, 10.0)
        with pytest.raises(ValueError):
            cloud.weekly_uptime(0.0, units.DAY)


class TestDomainLease:
    def test_renewals_every_ten_years(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=0.0)
        cloud.deploy()
        sim.run_until(units.years(50.0) + units.DAY)
        assert cloud.domain_renewals == 5
        assert cloud.missed_renewals == 0
        assert cloud.domain_up

    def test_lease_constant(self):
        assert MAX_DOMAIN_LEASE == units.years(10.0)

    def test_certain_miss_darkens_page(self, sim):
        cloud = CloudEndpoint(
            sim, renewal_miss_probability=1.0, renewal_recovery=units.days(30.0)
        )
        cloud.deploy()
        sim.run_until(units.years(10.0) + units.days(1.0))
        assert not cloud.domain_up
        assert not cloud.accepting()
        sim.run_until(units.years(10.0) + units.days(31.0))
        assert cloud.domain_up

    def test_lapse_refuses_deliveries(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=1.0)
        cloud.deploy()
        sim.run_until(units.years(10.0) + units.DAY)
        assert not cloud.deliver("dev-1", "gw", "bh")

    def test_lapses_recorded(self, sim):
        cloud = CloudEndpoint(sim, renewal_miss_probability=1.0)
        cloud.deploy()
        sim.run_until(units.years(21.0))
        assert len(sim.records("domain-lapse")) == 2

    def test_probability_validation(self, sim):
        with pytest.raises(ValueError):
            CloudEndpoint(sim, renewal_miss_probability=1.5)
