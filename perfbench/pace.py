"""Timings normalised by the speed the host ran at while they were taken.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over seconds to minutes: a neighbour busy on the same
physical core slows this one down.  Raw seconds from one run to the
next then mostly measure the neighbour.  So every timed stretch of work
is bracketed by two *probes* — a fixed reference loop, timed in the
same process right before and right after the stretch — and reported as

    normalised_s = raw_s * REFERENCE_S / mean(probe_before_s, probe_after_s)

the seconds the stretch would take on a host where one probe takes
``REFERENCE_S``.  The reference shares no code with the program, so a
change to the program moves the normalised time as it would move raw
time at a constant host speed; only the host's drift cancels.  Probe
time itself is never inside a timed stretch.

A workload's ``execute`` is a generator: the code between two ``yield``
statements is one stretch, probed on both sides.  A stretch whose work
ran in other processes yields how to normalise it from what those
processes measured (see :class:`ProbedStretches`); a bare ``yield``
uses this process's probes.  Work that cannot be cut into stretches,
such as a server's answers to a stream of requests, is normalised by
one factor from probes taken all through it (:func:`speed_of`).

Starting a process is slowed by other neighbours than a loop is, so a
server's start is normalised by *start probes* instead: a reference
interpreter start that imports what a service imports, and nothing of
the program (:func:`start_probe_s`).
"""

from __future__ import annotations

import functools
import gc
import heapq
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Callable, Generator, List, Optional, Tuple

#: What one probe takes on the host the benchmark's figures are scaled
#: to; a probe that takes twice this means the host runs at half speed.
REFERENCE_S = 0.005

#: Iterations of the reference loop in one probe: about ``REFERENCE_S``
#: on a 2 vCPU Intel Xeon VM whose physical cores are otherwise idle.
PROBE_ITERATIONS = 6000

#: The reference process start: the interpreter, numpy and the standard
#: library a service needs, no code of the program.
START_REFERENCE = "import asyncio, concurrent.futures, hashlib, json, multiprocessing, numpy"

#: What one reference start takes on the host the figures are scaled
#: to; the same 2 vCPU Xeon VM read 0.15 s when quiet.
REFERENCE_START_S = 0.15


def reference(iterations: int = PROBE_ITERATIONS) -> float:
    """Fixed interpreter work: a seeded heap, a dict and float sums."""
    heap: list = []
    counts: dict = {}
    draw = random.Random(1).random
    total = 0.0
    for i in range(iterations):
        heapq.heappush(heap, (draw(), i))
        counts[i & 511] = counts.get(i & 511, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[0] * 1.0001
    return total


def probe_s(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds one reference loop takes now.  The collector is off while
    it runs, so the probe never pays for collecting the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference(iterations)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def start_probe_s() -> float:
    """Seconds one reference process start takes now, to its exit."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", START_REFERENCE], check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def start_speed_of(probes: List[float]) -> float:
    """The host's speed at starting processes, over a set of start
    probes: 0.5 means a reference start took twice ``REFERENCE_START_S``."""
    return REFERENCE_START_S / statistics.median(probes)


def speed_of(probes: List[float], iterations: int = PROBE_ITERATIONS) -> float:
    """The host's speed over a set of probes of ``iterations`` each, as
    a share of the reference speed: 0.5 means probes took twice as long,
    and a time measured meanwhile normalises to half its raw value."""
    return REFERENCE_S * iterations / PROBE_ITERATIONS / statistics.median(probes)


class Pacer:
    """A chain of probes, one between every two timed stretches.

    A disabled pacer probes nothing and returns raw seconds; the traced
    run uses one, so its per-layer numbers are raw times.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.probes: List[float] = []
        self._before = self._probe() if enabled else 0.0

    def _probe(self) -> float:
        value = probe_s()
        self.probes.append(value)
        return value

    def stretch(
        self, raw_s: float, normalise: Optional[Callable[[float], float]] = None
    ) -> float:
        """Call right after a stretch that took ``raw_s``: probe, and
        return its normalised seconds.  ``normalise`` replaces this
        process's probes for work done in other processes."""
        if not self.enabled:
            return raw_s
        before, after = self._before, self._probe()
        self._before = after
        if normalise is not None:
            return normalise(raw_s)
        return raw_s * REFERENCE_S / ((before + after) / 2.0)

    def run(self, steps: Generator) -> Tuple[float, float, object]:
        """Drive an ``execute`` generator: (normalised s, raw s, result)."""
        normalised_s = raw_s = 0.0
        while True:
            started = time.perf_counter()
            try:
                normalise = next(steps)
            except StopIteration as stop:
                elapsed = time.perf_counter() - started
                return normalised_s + self.stretch(elapsed), raw_s + elapsed, stop.value
            elapsed = time.perf_counter() - started
            normalised_s += self.stretch(elapsed, normalise)
            raw_s += elapsed

    def host_speed(self) -> float:
        return speed_of(self.probes) if self.probes else 1.0


class ProbedStretches:
    """Runs every call of ``owner.name`` as probed stretches, in whichever
    process makes the call.

    ``steps(original, *args, **kwargs)`` is a generator like a workload's
    ``execute`` that finishes the call's work, usually by calling
    ``original`` at the end.  Installed before a fork pool starts, the
    replacement is what the forked workers run: each call appends its
    raw, normalised and probing seconds to a file per process in
    ``directory``, and :meth:`read` turns them into the normalised time
    of the stretch that contained those calls.
    """

    def __init__(self, owner: object, name: str, steps, directory: str) -> None:
        self.owner = owner
        self.name = name
        self.steps = steps
        self.directory = directory
        self.original = vars(owner)[name]
        #: Calls read back so far.
        self.calls = 0
        os.makedirs(directory, exist_ok=True)

    def install(self) -> None:
        original, steps, directory = self.original, self.steps, self.directory

        @functools.wraps(original)
        def probed(*args, **kwargs):
            pacer = Pacer()
            normalised_s, raw_s, result = pacer.run(steps(original, *args, **kwargs))
            path = os.path.join(directory, f"{os.getpid()}.txt")
            with open(path, "a", encoding="ascii") as out:
                out.write(f"{raw_s!r} {normalised_s!r} {sum(pacer.probes)!r}\n")
            return result

        setattr(self.owner, self.name, probed)

    def restore(self) -> None:
        setattr(self.owner, self.name, self.original)

    def read(self, workers: int) -> Optional[Callable[[float], float]]:
        """How to normalise a stretch whose work was the calls made since
        the last read, spread over ``workers`` processes: at their
        time-weighted speed, less the probing each worker did.  ``None``
        if no call was made."""
        raw_total = normalised_total = probing_s = 0.0
        for entry in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, entry)
            with open(path, encoding="ascii") as handle:
                for line in handle:
                    raw_s, normalised_s, probes_s = (float(v) for v in line.split())
                    raw_total += raw_s
                    normalised_total += normalised_s
                    probing_s += probes_s
                    self.calls += 1
            os.remove(path)
        if raw_total <= 0.0:
            return None
        speed = normalised_total / raw_total
        return lambda raw_s: max(0.0, raw_s - probing_s / workers) * speed
