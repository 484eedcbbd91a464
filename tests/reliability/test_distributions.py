"""Tests for repro.reliability.distributions."""

import math

import numpy as np
import pytest

from repro.core import units
from repro.reliability import (
    CompetingRisks,
    Deterministic,
    Exponential,
    LogNormal,
    Weibull,
    bathtub,
    mean_lifetime_years,
)


class TestExponential:
    def test_mean(self):
        assert Exponential(scale=100.0).mean() == 100.0

    def test_survival_at_mean(self):
        assert Exponential(scale=1.0).survival(1.0) == pytest.approx(math.exp(-1))

    def test_survival_at_zero(self):
        assert Exponential(scale=1.0).survival(0.0) == 1.0

    def test_constant_hazard(self):
        d = Exponential(scale=10.0)
        assert d.hazard(1.0) == d.hazard(100.0) == 0.1

    def test_sample_mean_converges(self, rng):
        draws = Exponential(scale=5.0).sample(rng, 20000)
        assert draws.mean() == pytest.approx(5.0, rel=0.05)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            Exponential(scale=0.0)
        with pytest.raises(ValueError, match="scale must be positive"):
            Exponential(scale=math.nan)


class TestWeibull:
    def test_mean_shape_one_equals_scale(self):
        assert Weibull(shape=1.0, scale=7.0).mean() == pytest.approx(7.0)

    def test_characteristic_life(self):
        # Survival at the scale parameter is always e^-1.
        for shape in (0.5, 1.0, 3.0):
            d = Weibull(shape=shape, scale=10.0)
            assert d.survival(10.0) == pytest.approx(math.exp(-1))

    def test_wearout_hazard_increases(self):
        d = Weibull(shape=4.0, scale=10.0)
        assert d.hazard(9.0) > d.hazard(5.0) > d.hazard(1.0)

    def test_infant_hazard_decreases(self):
        d = Weibull(shape=0.5, scale=10.0)
        assert d.hazard(1.0) > d.hazard(5.0) > d.hazard(9.0)

    def test_sample_mean_converges(self, rng):
        d = Weibull(shape=2.0, scale=10.0)
        draws = d.sample(rng, 20000)
        assert draws.mean() == pytest.approx(d.mean(), rel=0.05)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Weibull(shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            Weibull(shape=1.0, scale=-1.0)
        with pytest.raises(ValueError, match="shape must be positive"):
            Weibull(shape=math.nan, scale=1.0)
        with pytest.raises(ValueError, match="scale must be positive"):
            Weibull(shape=1.0, scale=math.nan)


class TestLogNormal:
    def test_survival_at_median_is_half(self):
        assert LogNormal(median=10.0, sigma=0.5).survival(10.0) == pytest.approx(0.5)

    def test_mean_exceeds_median(self):
        d = LogNormal(median=10.0, sigma=1.0)
        assert d.mean() > 10.0

    def test_mean_formula(self):
        d = LogNormal(median=10.0, sigma=0.5)
        assert d.mean() == pytest.approx(10.0 * math.exp(0.125))

    def test_sample_median_converges(self, rng):
        draws = LogNormal(median=10.0, sigma=0.8).sample(rng, 20000)
        assert np.median(draws) == pytest.approx(10.0, rel=0.05)

    def test_hazard_positive(self):
        d = LogNormal(median=10.0, sigma=0.5)
        assert d.hazard(5.0) > 0.0
        assert d.hazard(0.0) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormal(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormal(median=1.0, sigma=0.0)
        with pytest.raises(ValueError, match="median must be positive"):
            LogNormal(median=math.nan, sigma=1.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            LogNormal(median=1.0, sigma=math.nan)


class TestDeterministic:
    def test_step_survival(self):
        d = Deterministic(value=5.0)
        assert d.survival(4.99) == 1.0
        assert d.survival(5.0) == 0.0

    def test_sample_is_constant(self, rng):
        draws = Deterministic(value=3.0).sample(rng, 10)
        assert (draws == 3.0).all()

    def test_mean(self):
        assert Deterministic(value=3.0).mean() == 3.0

    def test_invalid_value(self):
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="value must be positive"):
                Deterministic(value=value)


class TestCompetingRisks:
    def test_survival_is_product(self):
        a = Exponential(scale=10.0)
        b = Exponential(scale=20.0)
        cr = CompetingRisks(risks=(a, b))
        t = 5.0
        assert cr.survival(t) == pytest.approx(a.survival(t) * b.survival(t))

    def test_hazard_is_sum(self):
        a = Exponential(scale=10.0)
        b = Exponential(scale=20.0)
        cr = CompetingRisks(risks=(a, b))
        assert cr.hazard(1.0) == pytest.approx(0.1 + 0.05)

    def test_two_exponentials_mean(self):
        # min(Exp(a), Exp(b)) is Exp with rate a^-1 + b^-1.
        cr = CompetingRisks(risks=(Exponential(10.0), Exponential(10.0)))
        assert cr.mean() == pytest.approx(5.0, rel=0.02)

    def test_sample_below_each_constituent(self, rng):
        cr = CompetingRisks(risks=(Weibull(3.0, 10.0), Exponential(5.0)))
        draws = cr.sample(rng, 5000)
        assert draws.mean() < 5.0 + 1.0  # strictly less than weaker risk

    def test_empty_risks_rejected(self):
        with pytest.raises(ValueError):
            CompetingRisks(risks=())

    def test_dominated_by_weakest(self, rng):
        weak = Weibull(shape=6.0, scale=units.years(5.0))
        strong = Weibull(shape=6.0, scale=units.years(80.0))
        cr = CompetingRisks(risks=(weak, strong))
        assert mean_lifetime_years(cr) == pytest.approx(
            mean_lifetime_years(weak), rel=0.1
        )


class TestBathtub:
    def test_hazard_is_bathtub_shaped(self):
        model = bathtub()
        early = model.hazard(units.years(0.05))
        middle = model.hazard(units.years(8.0))
        late = model.hazard(units.years(25.0))
        assert early > middle
        assert late > middle

    def test_mean_in_plausible_range(self):
        years = mean_lifetime_years(bathtub())
        assert 8.0 < years < 30.0
