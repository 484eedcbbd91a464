"""Shared fixtures and Hypothesis profiles for the centurysim test suite.

Tier-1 is a pure function of the tree: the ``tier1`` profile, loaded by
default, derandomizes Hypothesis (every property draws the same
examples on every run and host) and drops the timing-based deadline and
too-slow health check.  Each property keeps its own explicit
``@settings`` for its example budget.

The ``chaos`` profile is what CI's dedicated chaos job runs under
(``HYPOTHESIS_PROFILE=chaos``): derandomized so failures reproduce from
the log alone, no deadline (simulation examples are tens of
milliseconds, but pool startup in the worker-count property is not),
and a modest example budget.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import Simulation

settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "chaos",
    derandomize=True,
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def _pool_available() -> bool:
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(abs, -1).result() == 1
    except Exception:
        return False


#: Skip a test that needs real worker processes where none can start.
needs_pool = pytest.mark.skipif(
    not _pool_available(), reason="process pools unavailable on this platform"
)


def refuse_processes(*args, **kwargs):
    """Stands in for ``ProcessPoolExecutor`` where none can be created."""
    raise OSError(errno.ENOSYS, "no process pools here")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for sampling in tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulation:
    """A fresh simulation with a fixed seed."""
    return Simulation(seed=42)
