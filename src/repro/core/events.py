"""Event primitives for the discrete-event simulation kernel.

The kernel is a classic future-event-list design: callbacks scheduled at
absolute simulation times, executed in (time, priority, sequence) order.
Sequence numbers break ties deterministically, which matters for
reproducibility when many events share a timestamp (e.g. a fleet
deployed at t=0).

Hot-path layout (PR 3): the heap holds ``(time, priority, sequence,
event)`` tuples, so every sift comparison is a C-level tuple compare
that never reaches the :class:`Event` object — the unique sequence
number settles any tie before the fourth element is looked at.  The
``Event`` itself is a ``__slots__`` class (no dataclass machinery, no
per-instance ``__dict__``).  Cancelled events are lazily deleted on pop,
with threshold compaction so a 50-year horizon of
``PeriodicTask.stop()``/device-death cancellations cannot accumulate as
dead heap weight.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

EventCallback = Callable[[], None]

#: Compact the heap once at least this many cancelled entries linger
#: *and* they outnumber the live ones (see ``EventQueue._discard_live``).
#: The floor keeps small queues from compacting on every cancel; the
#: ratio bounds wasted heap memory and sift depth to a constant factor.
COMPACTION_MIN_DEAD = 64


class Event:
    """A scheduled callback in the future event list.

    Events execute in ``(time, priority, sequence)`` order.  Lower
    priority values run first among same-time events.  Ordering lives in
    the queue's heap entries, not on the event (no ``__lt__`` here — the
    object is never compared during heap sifts).  Cancelled events stay
    in the heap but are skipped on pop (lazy deletion).  ``popped``
    records that the owning queue already handed the event out, so a
    late cancel cannot corrupt the queue's live-event accounting.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "label",
        "cancelled",
        "popped",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.popped = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped.

        Idempotent, and safe after the event has already executed: the
        owning queue's live count is adjusted exactly once, and only if
        the event was still pending.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        self._queue = None
        if queue is not None and not self.popped:
            queue._discard_live()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, label={self.label!r}, {state})"


#: One heap entry: the three ordering keys, then the payload object the
#: keys were copied from.  The unique sequence guarantees the tuple
#: compare never falls through to the Event.
HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """A future event list with deterministic tie-breaking.

    >>> q = EventQueue()
    >>> order = []
    >>> _ = q.push(2.0, lambda: order.append("b"))
    >>> _ = q.push(1.0, lambda: order.append("a"))
    >>> while not q.empty():
    ...     q.pop().callback()
    >>> order
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._heap: List[HeapEntry] = []
        self._next_sequence = 0
        self._live = 0
        self._dead = 0  # cancelled entries still occupying the heap
        self._peak = 0
        #: Heap rebuilds triggered by cancelled-entry pressure.  A plain
        #: int (not a registry instrument) because the queue must stay
        #: usable standalone; the owning Simulation exposes it through
        #: its metrics registry as a lazy gauge.
        self.compactions = 0
        #: Live events cancelled out from under the queue (cancel churn).
        self.cancels = 0

    def push(
        self,
        time: float,
        callback: EventCallback,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return its Event."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label)
        event._queue = self
        heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        if self._live > self._peak:
            self._peak = self._live
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises ``IndexError`` if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                self._dead -= 1
                continue
            event.popped = True
            event._queue = None
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def pop_until(self, end_time: float) -> Optional[Event]:
        """Pop the earliest live event at or before ``end_time``.

        Returns None once the next live event lies beyond ``end_time``
        (the event is re-queued untouched and stays pending) or the
        queue is empty.  This fuses the engine's old peek-then-pop pair
        into one heap traversal per executed event.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[3]
            if event.cancelled:
                self._dead -= 1
                continue
            if entry[0] > end_time:
                # Not due yet: put the entry straight back.  Same keys,
                # same event — pending state and accounting untouched.
                heappush(heap, entry)  # simlint: ignore[SL007]
                return None
            event.popped = True
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the earliest live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._dead -= 1
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel ``event``; popping will silently skip it.

        Equivalent to ``event.cancel()`` — both paths share the same
        accounting, so cancelling twice, or cancelling an event that was
        already popped and executed, leaves ``len(queue)`` untouched.
        """
        event.cancel()

    def empty(self) -> bool:
        """True if no live events remain.

        O(1): an entry is live iff it is in the heap and not cancelled,
        which is exactly what ``_live`` counts — no peek needed.
        """
        return self._live == 0

    def __len__(self) -> int:
        return self._live

    @property
    def peak_live(self) -> int:
        """High-water mark of simultaneously pending live events."""
        return self._peak

    @property
    def dead_entries(self) -> int:
        """Cancelled entries currently occupying heap slots (observability)."""
        return self._dead

    def clear(self) -> None:
        """Drop all events.  The peak high-water mark is preserved."""
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._dead = 0

    def _discard_live(self) -> None:
        """Internal: a pending event was cancelled out from under us.

        Converts one live entry into dead heap weight; once the dead
        outnumber the live (past a small floor) the heap is rebuilt
        without them, so cancel-heavy workloads stay O(live) instead of
        accreting every cancellation ever made.
        """
        self._live -= 1
        self._dead += 1
        self.cancels += 1
        if self._dead >= COMPACTION_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._dead = 0
        self.compactions += 1
