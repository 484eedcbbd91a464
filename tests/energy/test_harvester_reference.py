"""``HarvestingSystem`` against a written-out reference of its formulas.

The system asks ``_maybe_recover`` only while browned out, and the
cathodic source ages its power without a call to ``units.as_years``.
The reference below recomputes everything on every call, in the order
the formulas are written.  Driven by the same random schedule of
energy steps, transmissions and profile swaps, from identically seeded
generators, the two must stay draw-for-draw and state-identical: the
same return values, stored energy, brownout count, recovery times and
generator state after every operation, for all four harvesting sources
and both storage kinds.
"""

import copy

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import units
from repro.energy import (
    Battery,
    Capacitor,
    CathodicProtectionSource,
    HarvestingSystem,
    TaskProfile,
    source_by_name,
)

SOURCES = ("cathodic", "solar", "vibration", "thermal")
#: Profiles a schedule may swap in.
PROFILES = (
    TaskProfile(),
    TaskProfile(
        sleep_power_w=2e-4, sample_energy_j=5e-3, tx_power_w=0.2, startup_energy_j=1e-3
    ),
)


class ReferenceHarvester:
    """The harvesting formulas, recomputed on every call."""

    def __init__(self, source, storage, profile):
        self.source = source
        self.storage = storage
        self.profile = profile
        self.conversion_efficiency = 0.8
        self.brownout_threshold = 0.05
        self.brownouts = 0
        self.last_brownout_at = None
        self.recovery_times = []
        self.in_brownout = False
        self.clock = 0.0

    def power_at(self, t, rng):
        source = self.source
        if isinstance(source, CathodicProtectionSource):
            age_years = units.as_years(t)
            level = source.nominal_power_w * (1.0 - source.degradation_per_year) ** age_years
            noise = 1.0 + source.noise_fraction * rng.standard_normal()
            return max(0.0, level * noise)
        return source.power_at(t, rng)

    def step(self, dt, rng):
        if dt == 0.0:
            return
        midpoint = self.clock + dt / 2.0
        self.clock += dt
        harvested = self.power_at(midpoint, rng) * dt
        net = harvested * self.conversion_efficiency - self.profile.sleep_power_w * dt
        if net >= 0.0:
            self.storage.charge(net)
            self.storage.leak(dt)
            self.maybe_recover()
        else:
            self.storage.leak(dt)
            if not self.storage.discharge(-net):
                self.storage.discharge(self.storage.stored_j)
                self.enter_brownout()
            else:
                self.maybe_recover()

    def try_transmit(self, airtime_s):
        cost = self.profile.cycle_energy(airtime_s)
        if self.in_brownout:
            cost += self.profile.startup_energy_j
        floor = self.brownout_threshold * self.storage.usable_capacity_j
        if self.storage.stored_j - cost < floor:
            self.enter_brownout()
            return False
        paid = self.storage.discharge(cost)
        if paid:
            self.maybe_recover()
        return paid

    def enter_brownout(self):
        if not self.in_brownout:
            self.in_brownout = True
            self.brownouts += 1
            self.last_brownout_at = self.clock

    def maybe_recover(self):
        if not self.in_brownout:
            return
        refill = 2.0 * self.brownout_threshold * self.storage.usable_capacity_j
        if self.storage.stored_j >= refill:
            self.in_brownout = False
            if self.last_brownout_at is not None:
                self.recovery_times.append(self.clock - self.last_brownout_at)


def _pair(source_name, storage_kind, capacity_j, fill):
    source = source_by_name(source_name)
    if storage_kind == "capacitor":
        storage = Capacitor(capacity_j=capacity_j, stored_j=capacity_j * fill)
    else:
        storage = Battery(capacity_j=capacity_j, stored_j=capacity_j * fill)
    system = HarvestingSystem(source=source, storage=storage, profile=PROFILES[0])
    reference = ReferenceHarvester(source, copy.deepcopy(storage), PROFILES[0])
    return system, reference


def _state(system, rng):
    return (
        system.storage.stored_j,
        system.brownouts,
        list(system.recovery_times),
        system.last_brownout_at,
        rng.bit_generator.state,
    )


def _run(source_name, storage_kind, capacity_j, fill, ops):
    """Apply ``ops`` to both; returns the system for further checks."""
    system, reference = _pair(source_name, storage_kind, capacity_j, fill)
    rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    for kind, value in ops:
        if kind == "step":
            system.step(value, rng)
            reference.step(value, ref_rng)
        elif kind == "transmit":
            assert system.try_transmit(value) == reference.try_transmit(value)
        else:
            system.profile = reference.profile = PROFILES[value]
        assert system.browned_out == reference.in_brownout
        assert _state(system, rng) == _state(reference, ref_rng), (kind, value)
    return system


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("step"),
            st.one_of(
                st.sampled_from([0.0, 60.0, 600.0, units.HOUR, units.DAY, units.WEEK]),
                st.floats(min_value=0.0, max_value=units.years(3.0)),
            ),
        ),
        st.tuples(
            st.just("transmit"),
            st.one_of(
                st.sampled_from([0.0014, 0.01, 0.1, 0.5]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
        ),
        st.tuples(st.just("profile"), st.integers(0, len(PROFILES) - 1)),
    ),
    max_size=60,
)

#: Hourly steps, each followed by a transmission the capacitor cannot
#: afford (a brownout) and a cheap one: every source browns out and
#: recovers many times over two simulated weeks.
_CROSSING = [("step", units.HOUR), ("transmit", 0.5), ("transmit", 0.0014)] * 336


@example(
    source_name="cathodic", storage_kind="capacitor", capacity_j=0.02, fill=0.5,
    ops=[("profile", 1)] + _CROSSING[:30] + [("profile", 0)] + _CROSSING[:30],
)
@example(
    source_name="solar", storage_kind="battery", capacity_j=0.05, fill=1.0,
    ops=_CROSSING[:90],
)
@given(
    source_name=st.sampled_from(SOURCES),
    storage_kind=st.sampled_from(["capacitor", "battery"]),
    capacity_j=st.floats(min_value=0.005, max_value=0.5),
    fill=st.floats(min_value=0.0, max_value=1.0),
    ops=_ops,
)
@settings(max_examples=300)
def test_system_matches_the_reference(source_name, storage_kind, capacity_j, fill, ops):
    _run(source_name, storage_kind, capacity_j, fill, ops)


def test_every_source_crosses_brownout_and_recovery():
    """The crossing schedule is not vacuous: it browns out and recovers
    every source, and the system still matches the reference."""
    for source_name in SOURCES:
        system = _run(source_name, "capacitor", 0.02, 0.5, _CROSSING)
        assert system.brownouts > 1, source_name
        assert system.recovery_times, source_name
