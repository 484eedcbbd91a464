"""``draw(rng)`` is ``float(sample(rng, 1)[0])``, draw for draw.

Failure processes and cohort members arm one lifetime at a time through
``draw``; the vector path ``sample`` stays for fleet-wide callers.  The
two must be interchangeable without moving a single event: from
identically seeded generators, every scalar draw must equal the
one-element sample bit for bit and leave the generator in the same
state.  That is checked here for every distribution, for nested
competing risks (whose risks must draw in risk order), for every
device archetype and for the gateway platform.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    CompetingRisks,
    Deterministic,
    Exponential,
    LogNormal,
    Weibull,
    bathtub,
    device_lifetime_model,
    gateway_platform,
)

#: Every archetype ``device_lifetime_model`` builds.
DEVICE_KINDS = ("battery", "battery-premium", "harvesting", "harvesting-solar", "gateway")

seeds = st.integers(min_value=0, max_value=2**63 - 1)
positive = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False)
shapes = st.floats(min_value=0.2, max_value=10.0, allow_nan=False)
sigmas = st.floats(min_value=0.01, max_value=3.0, allow_nan=False)

leaves = st.one_of(
    st.builds(Exponential, scale=positive),
    st.builds(Weibull, shape=shapes, scale=positive),
    st.builds(LogNormal, median=positive, sigma=sigmas),
    st.builds(Deterministic, value=positive),
)
models = st.recursive(
    leaves,
    lambda inner: st.lists(inner, min_size=1, max_size=4).map(
        lambda risks: CompetingRisks(risks=tuple(risks))
    ),
    max_leaves=12,
)


def assert_draws_match_samples(model, seed, n):
    scalar = np.random.default_rng(seed)
    vector = np.random.default_rng(seed)
    for _ in range(n):
        drawn = model.draw(scalar)
        sampled = float(model.sample(vector, 1)[0])
        assert type(drawn) is float
        assert drawn.hex() == sampled.hex()
        assert scalar.bit_generator.state == vector.bit_generator.state


@settings(max_examples=200)
@given(model=models, seed=seeds, n=st.integers(min_value=1, max_value=8))
def test_any_model_draws_as_it_samples(model, seed, n):
    assert_draws_match_samples(model, seed, n)


@settings(max_examples=25)
@given(
    kind=st.sampled_from(DEVICE_KINDS),
    seed=seeds,
    n=st.integers(min_value=1, max_value=16),
)
def test_device_archetypes_draw_as_they_sample(kind, seed, n):
    assert_draws_match_samples(device_lifetime_model(kind), seed, n)


@settings(max_examples=25)
@given(networked=st.booleans(), seed=seeds, n=st.integers(min_value=1, max_value=16))
def test_gateway_platform_draws_as_it_samples(networked, seed, n):
    assert_draws_match_samples(gateway_platform(networked=networked), seed, n)


@settings(max_examples=25)
@given(seed=seeds)
def test_nested_risks_draw_in_risk_order(seed):
    # The bathtub inside a device: the infant, random and wear-out
    # terms must draw in that order within each outer risk slot.
    model = CompetingRisks(
        risks=(Exponential(scale=3.0), bathtub(), Weibull(shape=2.0, scale=5.0))
    )
    assert_draws_match_samples(model, seed, 12)
