"""The discrete-event simulation engine.

``Simulation`` owns the clock, the future event list, the named RNG
streams, and an ordered log of recorded observations.  Subsystems
schedule callbacks (absolute or relative), and long-running behaviours
are expressed as self-rescheduling callbacks or via :meth:`every`.

The engine is deliberately synchronous and single-threaded: century
horizons are covered by the sparsity of events (a sensor transmitting
hourly for 50 years is ~438k events), not by parallelism.  Parallelism
lives one layer up: :mod:`repro.runtime` fans independent runs (one
engine per seed) across worker processes.

The run loop is the innermost hot path of every Monte-Carlo study, so
:meth:`run_until` drives :meth:`EventQueue.pop_until` directly — one
heap traversal per executed event instead of the peek-then-pop pair —
and the log keeps a per-channel index so :meth:`records` never scans
the full run log.  Both fast paths preserve the determinism contract:
execution order is exactly ``(time, priority, sequence)`` and all
randomness flows through :class:`~repro.core.rng.RandomStreams`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..obs import MetricsRegistry
from .events import Event, EventQueue
from .rng import RandomStreams


class LogRecord:
    """A timestamped observation recorded during a run.

    A plain ``__slots__`` class: fifty-year runs record tens of
    thousands of observations, so per-record ``__dict__`` overhead and
    dataclass dispatch are measurable.
    """

    __slots__ = ("time", "channel", "message", "data")

    def __init__(
        self,
        time: float,
        channel: str,
        message: str = "",
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.channel = channel
        self.message = message
        self.data = {} if data is None else data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return (
            # Value equality for a recorded observation, not a schedule
            # comparison: exact float match is the correct semantics.
            self.time == other.time  # simlint: ignore[SL005]
            and self.channel == other.channel
            and self.message == other.message
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return (
            f"LogRecord(time={self.time!r}, channel={self.channel!r}, "
            f"message={self.message!r}, data={self.data!r})"
        )


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Simulation:
    """A single simulation run.

    Parameters
    ----------
    seed:
        Root seed for all named random streams.
    start_time:
        Initial clock value in seconds (default 0.0).

    >>> sim = Simulation(seed=1)
    >>> hits = []
    >>> _ = sim.call_at(10.0, lambda: hits.append(sim.now))
    >>> sim.run_until(100.0)
    >>> hits
    [10.0]
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self.events = EventQueue()
        self.streams = RandomStreams(seed=seed)
        self.log: List[LogRecord] = []
        #: Monotone counter bumped by entity lifecycle transitions and
        #: dependency rewiring (see :mod:`repro.core.entity`).  Consumers
        #: that cache topology-derived views (e.g. a device's link
        #: table) compare against it to know when to rebuild.
        self.topology_version: int = 0
        #: Optional hook called with each :class:`Event` immediately
        #: before its callback runs — the golden-trace tests use it to
        #: pin the exact execution order.  Must not mutate the event.
        self.trace_executed: Optional[Callable[[Event], None]] = None
        #: Optional hook called (with no arguments) after each executed
        #: event — :class:`repro.faults.InvariantAuditor` uses it to run
        #: always-on runtime checks.  Must not schedule events or draw
        #: randomness, so enabling it never perturbs a trace.
        self.audit_hook: Optional[Callable[[], None]] = None
        #: Every entity ever constructed against this simulation, in
        #: construction order (see :meth:`register_entity`).  Fault
        #: selectors and the invariant auditor scan this registry.
        self.entities: List[Any] = []
        #: Named non-entity targets (e.g. the prepaid data-credit
        #: wallet) that fault specs may act on.  Populated by experiment
        #: builders; absent keys make the corresponding fault a no-op.
        self.resources: Dict[str, Any] = {}
        #: The fault controller, set by :meth:`install_faults`.
        #: Maintenance paths consult it for no-show suppression windows.
        self.fault_controller: Optional[Any] = None
        #: The run's one metrics registry (see :mod:`repro.obs`): every
        #: subsystem registers its instruments here, and the runtime
        #: snapshots it into the :class:`RunResult`.  Deterministic by
        #: construction — instruments only record what the simulation
        #: itself computes.
        self.metrics = MetricsRegistry()
        self._log_index: Dict[str, List[LogRecord]] = {}
        self._entity_id = 0
        self._executed_counter = self.metrics.counter("sim_events_executed_total")
        events = self.events
        self.metrics.gauge_fn(
            "sim_peak_pending_events", lambda: events.peak_live, agg="max"
        )
        self.metrics.gauge_fn(
            "sim_queue_compactions", lambda: events.compactions, agg="sum"
        )
        self.metrics.gauge_fn(
            "sim_queue_cancels", lambda: events.cancels, agg="sum"
        )
        self._stopped = False

    def register_entity(self, entity: Any) -> None:
        """Add ``entity`` to this run's registry (called by Entity.__init__)."""
        self.entities.append(entity)

    def install_faults(self, plan: Any) -> Any:
        """Install a :class:`repro.faults.FaultPlan`; returns the controller.

        May be called more than once — later plans extend the same
        controller, so composed plans share one fault event stream.
        """
        return plan.install(self)

    def next_entity_id(self) -> int:
        """Allocate the next auto-naming id for this run's entities.

        Per-simulation (not process-global) so a run's entity names are
        reproducible regardless of what the process simulated before.
        """
        self._entity_id += 1
        return self._entity_id

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        return self.events.push(time, callback, priority=priority, label=label)

    def call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if not delay >= 0.0:  # also rejects NaN
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback, priority=priority, label=label)

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        start: Optional[float] = None,
        until: Optional[float] = None,
        label: str = "",
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds.

        ``start`` is the absolute time of the first call (defaults to
        ``now + interval``); ``until`` bounds the last call time.
        Returns a handle whose :meth:`PeriodicTask.stop` halts the cycle.
        """
        if not interval > 0.0:  # also rejects NaN
            raise SimulationError(f"interval must be positive, got {interval}")
        if until is not None and until != until:
            raise SimulationError("until must not be NaN")
        if start is not None and start != start:
            raise SimulationError("start must not be NaN")
        first = self.now + interval if start is None else start
        if first < self.now and (until is None or first <= until):
            raise SimulationError(
                f"cannot schedule at t={first} before now={self.now}"
            )
        task = PeriodicTask(self, interval, callback, until, label)
        task.schedule(first)
        return task

    def stop(self) -> None:
        """Halt the current :meth:`run_until` after the active event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when none remain."""
        try:
            event = self.events.pop()
        except IndexError:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event queue yielded past event at t={event.time} < now={self.now}"
            )
        self.now = event.time
        if self.trace_executed is not None:
            self.trace_executed(event)
        event.callback()
        self._executed_counter.value += 1
        if self.audit_hook is not None:
            self.audit_hook()
        return True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left at exactly ``end_time`` (or at the stop point if
        :meth:`stop` was called).  ``max_events`` is a safety valve for
        runaway self-scheduling loops.
        """
        if end_time != end_time:
            raise SimulationError("end_time must not be NaN")
        if end_time < self.now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self.now}"
            )
        self._stopped = False
        executed = 0
        pop_until = self.events.pop_until
        # The executed-events counter is the innermost observable write:
        # hoist the instrument so each iteration pays one slot store, not
        # a registry lookup.
        executed_counter = self._executed_counter
        while not self._stopped:
            event = pop_until(end_time)
            if event is None:
                break
            if event.time < self.now:
                raise SimulationError(
                    f"event queue yielded past event at t={event.time} "
                    f"< now={self.now}"
                )
            self.now = event.time
            if self.trace_executed is not None:
                self.trace_executed(event)
            event.callback()
            executed_counter.value += 1
            if self.audit_hook is not None:
                self.audit_hook()
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"run_until exceeded max_events={max_events}"
                )
        if not self._stopped:
            self.now = end_time

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def record(self, channel: str, message: str = "", **data: Any) -> None:
        """Append a timestamped observation to the run log."""
        # ``**data`` is a fresh dict built for this call: keep it, no copy.
        record = LogRecord(self.now, channel, message, data)
        self.log.append(record)
        index = self._log_index.get(channel)
        if index is None:
            index = []
            self._log_index[channel] = index
        index.append(record)

    def records(self, channel: str) -> List[LogRecord]:
        """All log records on ``channel``, in time order.

        Served from the per-channel index — O(matches), not a scan of
        the whole run log.  Returns a fresh list; mutating it does not
        affect the log.
        """
        index = self._log_index.get(channel)
        return list(index) if index is not None else []

    def rng(self, name: str):
        """Shorthand for ``self.streams.get(name)``."""
        return self.streams.get(name)

    def __repr__(self) -> str:
        return (
            f"Simulation(now={self.now:.6g}, pending={len(self.events)}, "
            f"executed={self._executed_counter.value})"
        )


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulation.every`."""

    def __init__(
        self,
        sim: Simulation,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float],
        label: str,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._until = until
        self._label = label
        self._event: Optional[Event] = None
        self._stopped = False
        self.fired = 0
        # The queue's ``push``, fetched once here: a device's report
        # cycle re-arms through it every report.  A wrapper installed on
        # ``EventQueue.push`` sees these calls only if it is in place
        # before the task is built.
        self._push = sim.events.push

    def schedule(self, time: float) -> None:
        """Arm the next firing at absolute ``time`` (internal).

        Pushes straight onto the event queue: :meth:`Simulation.every`
        checks the first ``time`` against the clock, and every later one
        is ``now + interval`` with ``interval > 0``.
        """
        if self._stopped:
            return
        if self._until is not None and time > self._until:
            return
        self._event = self._push(time, self._fire, 0, self._label)

    def _fire(self) -> None:
        self._event = None
        if self._stopped:
            return
        self._callback()
        self.fired += 1
        self.schedule(self._sim.now + self._interval)

    def stop(self) -> None:
        """Stop the cycle; any armed firing is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._sim.events.cancel(self._event)
            self._event = None

    @property
    def active(self) -> bool:
        """True while the task still has a scheduled next firing."""
        return not self._stopped and self._event is not None
