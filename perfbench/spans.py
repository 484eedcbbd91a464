"""Outside-in span tracing of the ``repro`` layers.

The program is never edited to be traced.  :class:`Tracer` replaces the
public entry points of each layer (class attributes and module-level
functions) with thin wrappers for the duration of one traced run, and
puts every original object back afterwards — :meth:`Tracer.restore`
leaves each patched attribute ``is``-identical to what it found.

Each wrapped call is a span.  A span's *self time* is its duration minus
the part its child spans cover, so the self times of all layers plus the
time no span covered (*unattributed*) add up to the traced window
exactly.  Coroutines are timed step by step (one ``send`` into the
coroutine is one span), so an ``await`` that parks a request never bills
the idle loop to the layer that awaited.

Wrappers are installed per process.  A forked child either keeps them
and reports its spans back through :meth:`Tracer.dump_child` (the
Monte-Carlo pool) or drops them on fork (the serve pool, whose workers
are not a serve layer).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

ROOT = "<root>"

#: ``observe(stats, args, result)`` records layer counts at the boundary.
Observer = Callable[["LayerStats", tuple, object], None]


@dataclass
class LayerStats:
    """What one layer did inside the traced window."""

    calls: int = 0
    self_s: float = 0.0
    #: Extra boundary counts (outcomes, members, waits), by name.
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def to_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counts": dict(self.counts)}

    def merge(self, other: dict) -> None:
        self.calls += other["calls"]
        self.self_s += other["self_s"]
        for name, amount in other["counts"].items():
            self.add(name, amount)


class Tracer:
    """Span bookkeeping plus the patch table that makes it outside-in."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.layers: Dict[str, LayerStats] = {}
        self._root = [ROOT, self.clock(), 0.0]
        self._stack: List[list] = [self._root]
        #: (owner, attribute, original object) in patch order.
        self._patches: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._child_dir: Optional[str] = None
        self._child_dumps = 0

    # -- span accounting ------------------------------------------------
    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def start_window(self) -> None:
        """Open the traced window: forget earlier spans, restart the clock."""
        self.layers = {}
        self._root = [ROOT, self.clock(), 0.0]
        self._stack = [self._root]

    def window(self) -> Tuple[float, float]:
        """``(window seconds, seconds covered by top-level spans)``."""
        return self.clock() - self._root[1], self._root[2]

    def _enter(self, layer: str) -> Tuple[list, list]:
        parent = self._stack[-1]
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        return parent, frame

    def _exit(self, parent: list, frame: list, count: bool) -> LayerStats:
        duration = self.clock() - frame[1]
        self._stack.pop()
        parent[2] += duration
        stats = self.stats(frame[0])
        stats.self_s += duration - frame[2]
        if count:
            stats.calls += 1
        return stats

    # -- wrappers -------------------------------------------------------
    def _span(
        self,
        fn: Callable,
        layer: str,
        observe: Optional[Observer],
        then: Optional[Callable[[], None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, frame = tracer._enter(layer)
            # Re-entry from the same layer (an override calling super())
            # is one boundary crossing, not two.
            entering = parent[0] != layer
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = tracer._exit(parent, frame, entering)
            if observe is not None and entering:
                observe(stats, args, result)
            if then is not None:
                then()
            return result

        return traced

    def _stepped(self, fn: Callable, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _Steps(tracer, layer, fn(*args, **kwargs))

        return traced

    def _waited(self, fn: Callable, layer: str, count: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            started = tracer.clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.stats(layer).add(count, tracer.clock() - started)

        return traced

    # -- patching -------------------------------------------------------
    def _patch(self, owner: object, name: str, replacement: object) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def wrap_method(
        self,
        cls: type,
        name: str,
        layer: str,
        observe: Optional[Observer] = None,
        mode: str = "span",
    ) -> None:
        """Wrap ``cls.name`` (a plain, static or coroutine method).

        ``mode`` is ``"span"`` for synchronous code, ``"steps"`` to time a
        coroutine's steps as spans, or ``"wait:<count>"`` to add a
        coroutine's wall time to the layer count ``<count>``.
        """
        raw = vars(cls)[name]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if mode == "span":
            wrapped = self._span(fn, layer, observe)
        elif mode == "steps":
            if not inspect.iscoroutinefunction(fn):
                raise TypeError(f"{cls.__name__}.{name} is not a coroutine function")
            wrapped = self._stepped(fn, layer)
        elif mode.startswith("wait:"):
            wrapped = self._waited(fn, layer, mode.split(":", 1)[1])
        else:
            raise ValueError(f"unknown wrap mode {mode!r}")
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patch(cls, name, wrapped)

    def wrap_function(
        self,
        module: str,
        name: str,
        layer: str,
        observe: Optional[Observer] = None,
        then: Optional[Callable[[], None]] = None,
    ) -> None:
        """Wrap a module-level function at every ``repro`` module that
        imported it by name, so callers holding it as a global see the
        wrapper too.  ``then()`` runs after each call's span closes.

        The wrapper carries the original's module and name, so a pool
        pickling the function by reference resolves to the wrapper."""
        original = getattr(sys.modules[module], name)
        wrapped = self._span(original, layer, observe, then)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(name) is original:
                self._patch(mod, name, wrapped)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched(self) -> List[Tuple[object, str, object]]:
        """The live patch table (owner, attribute, original)."""
        return list(self._patches)

    # -- forked children ------------------------------------------------
    def follow_forks(self, directory: Optional[str]) -> None:
        """Decide what a forked child does with the wrappers.

        With a directory, children keep them and :meth:`dump_child`
        writes their spans there; without one, children restore the
        originals at fork and run untraced.
        """
        self._child_dir = directory
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if not self._patches or os.getpid() == self._pid:
            return
        if self._child_dir is None:
            self.restore()
        else:
            self.start_window()

    def in_child(self) -> bool:
        return os.getpid() != self._pid

    def dump_child(self) -> None:
        """In a followed child, write its layer totals since its last
        dump; elsewhere do nothing."""
        if self._child_dir is None or not self.in_child():
            return
        self._child_dumps += 1
        path = os.path.join(
            self._child_dir, f"child-{os.getpid()}-{self._child_dumps}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({k: v.to_dict() for k, v in self.layers.items()}, handle)
        self.start_window()

    def collect_children(self) -> Dict[str, LayerStats]:
        """Sum every child dump into one table (children only)."""
        totals: Dict[str, LayerStats] = {}
        if self._child_dir is None:
            return totals
        for name in sorted(os.listdir(self._child_dir)):
            if not name.startswith("child-"):
                continue
            with open(os.path.join(self._child_dir, name), encoding="utf-8") as handle:
                for layer, payload in json.load(handle).items():
                    totals.setdefault(layer, LayerStats()).merge(payload)
        return totals


class _Steps:
    """Drive a coroutine one ``send`` at a time, each send a span."""

    __slots__ = ("tracer", "layer", "coro")

    def __init__(self, tracer: Tracer, layer: str, coro) -> None:
        self.tracer = tracer
        self.layer = layer
        self.coro = coro

    def __await__(self):
        tracer, layer, coro = self.tracer, self.layer, self.coro
        value, error, first = None, None, True
        while True:
            parent, frame = tracer._enter(layer)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                tracer._exit(parent, frame, first and parent[0] != layer)
                return stop.value
            except BaseException:
                tracer._exit(parent, frame, first and parent[0] != layer)
                raise
            tracer._exit(parent, frame, first and parent[0] != layer)
            first = False
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc
