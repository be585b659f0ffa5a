"""The event loop: a time-ordered heap of callbacks plus the clock.

Ties are broken by insertion sequence, which makes every run with the same
seed bit-for-bit deterministic — a hard requirement for reproducing the
paper's probabilistic claims (loss windows, violation rates) as exact
numbers under a seed.

Hot-path layout (``bench``'s ``sim.sched_us_per_event`` rung times this):

- Zero-delay callbacks — process spawns, resumes, interrupts, same-time
  continuations — bypass the heap entirely and ride a FIFO *fast lane*
  (a deque). They share the global insertion counter with heap entries,
  so the executed order is exactly the (time, seq) order the heap alone
  would produce; the lane just skips the O(log n) sift for the most
  common scheduling pattern in the codebase.
- :meth:`Simulator.run` drains same-timestamp heap entries in a batched
  inner loop with locally-bound heap operations, instead of paying the
  full bound-check + method dispatch per event.

Both optimizations are bit-for-bit neutral; ``tests/golden`` freezes
rendered traces from before they landed.

Cancellation: a heap entry is a mutable ``[when, seq, fn, args]`` list,
and :meth:`Simulator.schedule` hands it back as the entry's handle.
:meth:`Simulator.cancel` turns it into a *tombstone* (``fn`` and ``args``
set to None, so what they referenced is freed at once). ``run()`` drops a
popped tombstone without a step and without moving the clock. Once more
than 64 entries, and more than half the heap, are tombstones, the heap is
filtered and re-heapified in place (asyncio's rule); the survivors' pop
order is their unique ``(time, seq)`` order, so this is deterministic
too. Lane callbacks are not cancellable: ``schedule`` returns None for
them.
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, Name
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process
from repro.sim.random import RngRegistry
from repro.sim.trace import TraceLog

#: A heap entry, ``[when, seq, fn, args]``; ``fn`` and ``args`` are None
#: once cancelled. The entry is its own handle.
_HeapItem = List[Any]
_LaneItem = Tuple[int, Callable[..., None], tuple]

#: Callbacks run whenever a fresh Simulator is constructed. Modules with
#: process-global counters (message ids, request uniquifiers) register a
#: reset here so that two runs of the same seeded model in one process
#: produce bit-identical traces — the foundation of chaos-plan replay.
_fresh_run_hooks: List[Callable[[], None]] = []


def register_fresh_run_hook(hook: Callable[[], None]) -> None:
    """Run ``hook()`` at every :class:`Simulator` construction."""
    _fresh_run_hooks.append(hook)


#: Compact the heap once more tombstones than this sit in it, and they
#: are more than half of it.
_COMPACT_MIN_TOMBSTONES = 64


class Simulator:
    """Discrete-event simulator: clock, event heap, RNG, metrics, trace.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    trace_capacity:
        Maximum retained trace records (None = unbounded).
    """

    def __init__(self, seed: int = 0, trace_capacity: Optional[int] = 10000) -> None:
        for hook in _fresh_run_hooks:
            hook()
        self.now: float = 0.0
        #: Total callbacks executed over the simulator's lifetime; ``bench``
        #: reports it as a run's exact ``events`` field.
        self.steps: int = 0
        self.seed = seed
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry()
        self.trace = TraceLog(self, capacity=trace_capacity)
        self._heap: List[_HeapItem] = []
        #: How many heap entries are tombstones.
        self._tombstones = 0
        #: The zero-delay fast lane: (seq, fn, args) at the current time.
        self._lane: Deque[_LaneItem] = deque()
        self._seq = itertools.count()
        self._proc_seq = itertools.count()
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling primitives

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> Optional[_HeapItem]:
        """Run ``fn(*args)`` after ``delay`` simulated seconds. Returns the
        entry's handle for :meth:`cancel`, or None for a zero delay (a
        lane callback, which cannot be cancelled)."""
        if delay <= 0.0:
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            self._lane.append((next(self._seq), fn, args))
            return None
        entry = [self.now + delay, next(self._seq), fn, args]
        _heappush(self._heap, entry)
        return entry

    def schedule_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> Optional[_HeapItem]:
        """Run ``fn(*args)`` at absolute simulated time ``when``. Returns a
        handle as :meth:`schedule` does (None for ``when == now``)."""
        if when <= self.now:
            if when < self.now:
                raise SimulationError(
                    f"cannot schedule in the past: {when} < {self.now}"
                )
            self._lane.append((next(self._seq), fn, args))
            return None
        entry = [when, next(self._seq), fn, args]
        _heappush(self._heap, entry)
        return entry

    def cancel(self, handle: _HeapItem) -> None:
        """Make a scheduled callback never run. Raises
        :class:`SimulationError` if it was already cancelled or has run."""
        when = handle[0]
        if handle[2] is None:
            raise SimulationError(f"callback at {when} cancelled twice")
        # Every entry still waiting is at or after `now`, and every one
        # that ran is at or before it: only a tie needs the heap searched.
        if when < self.now or (
            when == self.now and not any(entry is handle for entry in self._heap)
        ):
            raise SimulationError(f"callback at {when} cancelled after it ran")
        handle[2] = handle[3] = None
        self._tombstones += 1
        heap = self._heap
        if (self._tombstones > _COMPACT_MIN_TOMBSTONES
                and 2 * self._tombstones > len(heap)):
            # In place: a running run() holds this very list.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._tombstones = 0

    def event(self, name: Name = "") -> Event:
        """Create a fresh one-shot event bound to this simulator."""
        return Event(self, name)

    def timeout_event(self, delay: float, name: Name = "") -> Event:
        """An event that triggers by itself, with None, after ``delay``."""
        event = Event(self, name or ("timeout@%.6g", self.now + delay))
        self.schedule(delay, event.trigger, None)
        return event

    def spawn(
        self, gen: Generator[Any, Any, Any], name: Optional[Name] = None
    ) -> Process:
        """Start a new process from a generator; returns the process."""
        if name is None:
            name = ("proc-%d", next(self._proc_seq))
        return Process(self, gen, name)

    # ------------------------------------------------------------------
    # Running

    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> float:
        """Run until the pending work drains, ``until`` is reached, or
        ``max_steps`` callbacks have executed. Returns the final simulated
        time.

        ``until`` is inclusive of events at exactly that time. The clock
        is advanced to ``until`` only when every event at or before
        ``until`` has executed; if ``max_steps`` trips first with such
        events still pending, ``now`` stays at the last executed event's
        time so a later ``run()`` resumes without time travel.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            return self.now
        self._running = True
        heap = self._heap
        lane = self._lane
        pop = _heappop
        popleft = lane.popleft
        executed = 0
        limit = sys.maxsize if max_steps is None else max_steps
        try:
            # Entry pre-pass: drain work left at the current timestamp by a
            # previous bounded run(), interleaving stale same-time heap
            # entries with the lane in seq order.
            while lane and executed < limit:
                if heap and heap[0][0] <= self.now and heap[0][1] < lane[0][0]:
                    _when, _seq, fn, args = pop(heap)
                    if fn is None:
                        self._tombstones -= 1
                        continue
                else:
                    _seq, fn, args = popleft()
                fn(*args)
                executed += 1

            if until is None and max_steps is None:
                # Unbounded drain: the tightest loop, no bound checks.
                while heap:
                    when, _seq, fn, args = pop(heap)
                    if fn is None:
                        self._tombstones -= 1
                        continue
                    self.now = when
                    fn(*args)
                    # Batched same-timestamp drain. New heap entries at
                    # `when` cannot appear while processing `when` (zero
                    # delays ride the lane), so these are all older than
                    # any lane entry and run first, in seq order.
                    while heap and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
                        if fn is None:
                            self._tombstones -= 1
                            continue
                        fn(*args)
                        executed += 1
                    executed += 1
                    # Same-timestamp cascade: everything scheduled at zero
                    # delay by the events above, in FIFO order.
                    while lane:
                        _seq, fn, args = popleft()
                        fn(*args)
                        executed += 1
            else:
                while heap and executed < limit:
                    when, _seq, fn, args = heap[0]
                    if fn is None:
                        pop(heap)
                        self._tombstones -= 1
                        continue
                    if until is not None and when > until:
                        break
                    pop(heap)
                    self.now = when
                    fn(*args)
                    executed += 1
                    while heap and executed < limit and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
                        if fn is None:
                            self._tombstones -= 1
                            continue
                        fn(*args)
                        executed += 1
                    while lane and executed < limit:
                        _seq, fn, args = popleft()
                        fn(*args)
                        executed += 1
        finally:
            self._running = False
            self.steps += executed
        while heap and heap[0][2] is None:
            pop(heap)
            self._tombstones -= 1
        if (
            until is not None
            and self.now < until
            and not lane
            and (not heap or heap[0][0] > until)
        ):
            self.now = until
        return self.now

    def run_process(self, gen: Generator[Any, Any, Any],
                    until: Optional[float] = None) -> Any:
        """Spawn ``gen``, run the simulation, and return its result.

        Raises the process's exception if it failed; raises
        :class:`SimulationError` if the simulation drained before the
        process finished (a deadlock in the model).
        """
        proc = self.spawn(gen)
        self.run(until=until)
        if not proc.done.triggered:
            raise SimulationError(
                f"simulation drained before process {proc.name!r} finished"
            )
        return proc.done.value

    @property
    def pending_count(self) -> int:
        """Number of live callbacks waiting in the heap and the fast lane
        (tombstones not counted)."""
        return len(self._heap) - self._tombstones + len(self._lane)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now:.6g} pending={self.pending_count}>"
