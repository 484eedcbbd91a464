"""The endpoint's streamed arrival record against plain arrival lists.

:class:`~repro.net.cloud.CloudEndpoint` keeps one summary per calendar
week (count, first and last arrival, count at the last arrival) for the
whole endpoint and for each registered group, instead of one record per
packet.  Random arrival streams (two groups and an unregistered source,
batches at equal times, arrivals exactly on week boundaries) go into an
endpoint and into plain per-group lists; every query must then answer
exactly what a brute-force pass over the lists answers:

* ``weekly_uptime`` over random windows, ``start`` not only 0, and a
  ``ValueError`` exactly when a window edge falls strictly between a
  calendar week's first and last arrival;
* per group, the arm figures the fifty-year experiment reports, against
  :func:`~repro.analysis.uptime.interval_coverage` and
  :func:`~repro.analysis.uptime.longest_gap`.

A last test runs one small scenario for 1 and for 4 simulated years and
checks that the endpoint's retained memory grows with weeks, not with
packets.
"""

import gc
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.uptime import interval_coverage, longest_gap
from repro.core import Simulation, units
from repro.net import CloudEndpoint, UptimeReport
from repro.net import cloud as cloud_module

WEEK = units.WEEK
GROUPS = {"a0": "a", "a1": "a", "b0": "b", "b1": "b"}
SOURCES = sorted(GROUPS) + ["u"]  # "u" belongs to no group

_steps = st.lists(
    st.tuples(
        st.sampled_from(["same", "boundary", "gap"]),
        st.one_of(
            st.sampled_from([0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=2.5)
        ),
        st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3, unique=True),
    ),
    min_size=1,
    max_size=30,
)
_edge = st.tuples(
    st.sampled_from(["zero", "arrival", "week", "float"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


def _stream(steps):
    """``[(time, sources)]`` from the steps: same time, the next week
    boundary (plus whole weeks), or a gap of ``amount`` weeks."""
    stream = []
    t = 0.0
    for kind, amount, sources in steps:
        if kind == "boundary":
            t = (int(t // WEEK) + 1 + int(amount)) * WEEK
        elif kind == "gap":
            t = t + amount * WEEK
        stream.append((t, sources))
    return stream


def _endpoint(stream):
    endpoint = CloudEndpoint(Simulation(seed=1))
    endpoint.deploy()
    for source, group in GROUPS.items():
        endpoint.register(source, group)
    for t, sources in stream:
        assert endpoint.deliver_many(sources, t, "gw", "bh")
    return endpoint


def _arrivals(stream, group=None):
    return [
        t
        for t, sources in stream
        for s in sources
        if group is None or GROUPS.get(s) == group
    ]


def _window(stream, start_spec, length_spec):
    """A window from the specs: ``start`` at 0, at an arrival, on a week
    boundary or anywhere; ``end`` at an arrival at least a week later,
    on a boundary or anywhere at least a week later."""
    times = [t for t, _ in stream]
    span = times[-1] + WEEK
    kind, value = start_spec
    start = {
        "zero": 0.0,
        "arrival": times[int(value * len(times))],
        "week": int(value * (span // WEEK + 1)) * WEEK,
        "float": value * span,
    }[kind]
    kind, value = length_spec
    later = [t for t in times if t >= start + WEEK]
    if kind == "arrival" and later:
        end = later[int(value * len(later))]
    elif kind == "week":
        end = (int(start // WEEK) + 1 + int(value * 4)) * WEEK
        end = max(end, start + WEEK)
    else:
        end = start + WEEK + value * span
    while end - start < WEEK:  # rounding may leave it a hair short
        end = math.nextafter(end, math.inf)
    return start, end


def _splits(arrivals, edge):
    """Whether ``edge`` falls strictly between a calendar week's first
    and last arrival."""
    weeks = {}
    for t in arrivals:
        weeks.setdefault(int(t // WEEK), []).append(t)
    return any(min(ts) < edge < max(ts) for ts in weeks.values())


def _reference_uptime(arrivals, start, end):
    """The metric evaluated over the full list of arrival times."""
    n_weeks = int((end - start) // WEEK)
    hit = [False] * n_weeks
    inside = [t for t in arrivals if start <= t < end]
    for t in inside:
        index = int((t - start) // WEEK)
        if index < n_weeks:
            hit[index] = True
    longest = current = 0
    for h in hit:
        current = 0 if h else current + 1
        longest = max(longest, current)
    return UptimeReport(
        weeks=n_weeks,
        up_weeks=sum(hit),
        uptime=sum(hit) / n_weeks,
        longest_gap_weeks=longest,
        total_deliveries=len(inside),
    )


# Arrivals exactly at ``end`` (1.5 weeks), after an earlier arrival in
# the same calendar week: the two at ``end`` are left out of the count.
@example(
    steps=[
        ("same", 0.0, ["a0", "b0"]),
        ("gap", 1.25, ["a0", "u"]),
        ("gap", 0.25, ["a1"]),
        ("same", 0.0, ["b1"]),
        ("boundary", 0.0, ["a0"]),
    ],
    start_spec=("zero", 0.0),
    length_spec=("arrival", 0.5),
)
# Gaps of exactly one week, between week boundaries.
@example(
    steps=[
        ("gap", 0.5, ["a0"]),
        ("gap", 1.0, ["a0"]),
        ("gap", 1.0, ["b0"]),
    ],
    start_spec=("zero", 0.0),
    length_spec=("week", 0.5),
)
@given(steps=_steps, start_spec=_edge, length_spec=_edge)
@settings(max_examples=300)
def test_stream_matches_arrival_lists(steps, start_spec, length_spec):
    stream = _stream(steps)
    endpoint = _endpoint(stream)
    start, end = _window(stream, start_spec, length_spec)
    for group in (None, "a", "b"):
        arrivals = _arrivals(stream, group)
        if _splits(arrivals, start) or _splits(arrivals, end):
            with pytest.raises(ValueError, match="falls between arrivals"):
                endpoint.weekly_uptime(start, end, group)
        else:
            assert endpoint.weekly_uptime(start, end, group) == _reference_uptime(
                arrivals, start, end
            )
        # The longest silence never needs a split week's inner times.
        assert endpoint.longest_silence_weeks(end, group) == int(
            longest_gap(arrivals, 0.0, end) // WEEK
        )


@example(
    steps=[("gap", 0.5, ["a0"]), ("gap", 1.0, ["a1"]), ("boundary", 0.0, ["b0"])],
    horizon_weeks=3.0,
)
@given(steps=_steps, horizon_weeks=st.floats(min_value=1.0, max_value=40.0))
@settings(max_examples=200)
def test_arm_figures_match_the_analysis_functions(steps, horizon_weeks):
    """The two figures ``FiftyYearExperiment`` reports per arm, over
    ``[0, horizon)``, where the horizon may fall on arrivals."""
    stream = _stream(steps)
    times = [t for t, _ in stream]
    horizon = max(horizon_weeks * WEEK, times[-1])  # nothing arrives later
    endpoint = _endpoint(stream)
    for group in ("a", "b", "no-such-arm"):
        arrivals = _arrivals(stream, group)
        expected = interval_coverage(arrivals, 0.0, horizon) if arrivals else 0.0
        assert endpoint.weekly_uptime(0.0, horizon, group).uptime == expected
        assert endpoint.longest_silence_weeks(horizon, group) == int(
            longest_gap(arrivals, 0.0, horizon) // WEEK
        )


def test_out_of_order_arrival_rejected(sim):
    endpoint = CloudEndpoint(sim)
    endpoint.deploy()
    endpoint.deliver_many(["a"], 10.0, "gw", "bh")
    with pytest.raises(ValueError, match="precedes"):
        endpoint.deliver_many(["a"], 5.0, "gw", "bh")


def test_source_belongs_to_one_group(sim):
    endpoint = CloudEndpoint(sim)
    endpoint.register("a0", "a")
    endpoint.register("a0", "a")
    with pytest.raises(ValueError, match="another group"):
        endpoint.register("a0", "b")


def test_register_after_first_arrival_rejected(sim):
    """A group registered late would miss the earlier arrivals: ``a``
    arrives in week 0, so its arm would read half the endpoint's uptime
    over weeks 0-3."""
    endpoint = CloudEndpoint(sim)
    endpoint.deploy()
    endpoint.register("b", "arm")
    endpoint.deliver_many(["a", "b"], 0.5 * WEEK, "gw", "bh")
    with pytest.raises(ValueError, match="already arrived"):
        endpoint.register("a", "arm")
    with pytest.raises(ValueError, match="already arrived"):
        endpoint.register("a", "new-arm")
    # ``a`` stays unregistered: its later arrival counts for the
    # endpoint only.
    endpoint.deliver_many(["a"], 3.5 * WEEK, "gw", "bh")
    assert endpoint.weekly_uptime(0.0, 4 * WEEK).uptime == 0.5
    assert endpoint.weekly_uptime(0.0, 4 * WEEK, "arm").uptime == 0.25
    # Re-registering an already registered source to its own group is
    # still a no-op after it arrived.
    endpoint.register("b", "arm")


def _retained_endpoint_bytes(years):
    """Bytes allocated in ``net/cloud.py`` and still alive after an
    as-designed run of ``years``, with the delivered-packet count."""
    from repro.experiment.fifty_year import FiftyYearExperiment
    from repro.experiment.scenarios import scenario_config

    config = scenario_config("as-designed", 3, horizon=units.years(years))
    gc.collect()
    tracemalloc.start()
    try:
        experiment = FiftyYearExperiment(config)
        experiment.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_cloud = snapshot.filter_traces([tracemalloc.Filter(True, cloud_module.__file__)])
    size = sum(stat.size for stat in in_cloud.statistics("filename"))
    return size, experiment.endpoint.delivered_count


def test_retained_size_grows_with_weeks_not_packets():
    size_1, packets_1 = _retained_endpoint_bytes(1.0)
    size_4, packets_4 = _retained_endpoint_bytes(4.0)
    extra_weeks = units.years(3.0) / WEEK
    extra_packets = packets_4 - packets_1
    assert extra_packets > 250 * extra_weeks  # hundreds of packets a week
    # Three week summaries (the whole endpoint and two arms) a week take
    # a few hundred bytes; two bytes per packet would break this bound.
    assert size_4 - size_1 < 600 * extra_weeks
