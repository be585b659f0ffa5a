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
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, Name
from repro.sim.metrics import MetricsRegistry
from repro.sim.process import Process
from repro.sim.random import RngRegistry
from repro.sim.trace import TraceLog

_HeapItem = Tuple[float, int, Callable[..., None], tuple]
_LaneItem = Tuple[int, Callable[..., None], tuple]

#: Callbacks run whenever a fresh Simulator is constructed. Modules with
#: process-global counters (message ids, request uniquifiers) register a
#: reset here so that two runs of the same seeded model in one process
#: produce bit-identical traces — the foundation of chaos-plan replay.
_fresh_run_hooks: List[Callable[[], None]] = []


def register_fresh_run_hook(hook: Callable[[], None]) -> None:
    """Run ``hook()`` at every :class:`Simulator` construction."""
    _fresh_run_hooks.append(hook)


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
        #: The zero-delay fast lane: (seq, fn, args) at the current time.
        self._lane: Deque[_LaneItem] = deque()
        self._seq = itertools.count()
        self._proc_seq = itertools.count()
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling primitives

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay <= 0.0:
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            self._lane.append((next(self._seq), fn, args))
        else:
            _heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when <= self.now:
            if when < self.now:
                raise SimulationError(
                    f"cannot schedule in the past: {when} < {self.now}"
                )
            self._lane.append((next(self._seq), fn, args))
        else:
            _heappush(self._heap, (when, next(self._seq), fn, args))

    def event(self, name: Name = "") -> Event:
        """Create a fresh one-shot event bound to this simulator."""
        return Event(self, name)

    def timeout_event(self, delay: float, value: Any = None, name: Name = "") -> Event:
        """An event that triggers by itself after ``delay``."""
        event = Event(self, name or ("timeout@%.6g", self.now + delay))
        self.schedule(delay, event.trigger, value)
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

    def _lane_is_next(self) -> bool:
        """Does the fast lane hold the globally next (time, seq) item?

        Heap entries at the current timestamp predate any lane entry made
        while processing that timestamp, but after an interrupted run
        (``max_steps`` tripping mid-batch) both structures can hold items
        at ``now`` — the shared sequence counter disambiguates.
        """
        if not self._lane:
            return False
        heap = self._heap
        return not (heap and heap[0][0] <= self.now and heap[0][1] < self._lane[0][0])

    def step(self) -> bool:
        """Execute the next scheduled callback. Returns False if idle."""
        if self._lane_is_next():
            _seq, fn, args = self._lane.popleft()
        elif self._heap:
            when, _seq, fn, args = _heappop(self._heap)
            self.now = when
        else:
            return False
        self.steps += 1
        fn(*args)
        return True

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
                else:
                    _seq, fn, args = popleft()
                fn(*args)
                executed += 1

            if until is None and max_steps is None:
                # Unbounded drain: the tightest loop, no bound checks.
                while heap:
                    when, _seq, fn, args = pop(heap)
                    self.now = when
                    fn(*args)
                    # Batched same-timestamp drain. New heap entries at
                    # `when` cannot appear while processing `when` (zero
                    # delays ride the lane), so these are all older than
                    # any lane entry and run first, in seq order.
                    while heap and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
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
                    when = heap[0][0]
                    if until is not None and when > until:
                        break
                    _when, _seq, fn, args = pop(heap)
                    self.now = when
                    fn(*args)
                    executed += 1
                    while heap and executed < limit and heap[0][0] == when:
                        _w, _seq, fn, args = pop(heap)
                        fn(*args)
                        executed += 1
                    while lane and executed < limit:
                        _seq, fn, args = popleft()
                        fn(*args)
                        executed += 1
        finally:
            self._running = False
            self.steps += executed
        if (
            until is not None
            and self.now < until
            and not lane
            and (not heap or heap[0][0] > until)
        ):
            self.now = until
        return self.now

    def run_process(self, gen: Generator[Any, Any, Any], name: Optional[str] = None,
                    until: Optional[float] = None) -> Any:
        """Spawn ``gen``, run the simulation, and return its result.

        Raises the process's exception if it failed; raises
        :class:`SimulationError` if the simulation drained before the
        process finished (a deadlock in the model).
        """
        proc = self.spawn(gen, name=name)
        self.run(until=until)
        if not proc.done.triggered:
            raise SimulationError(
                f"simulation drained before process {proc.name!r} finished"
            )
        return proc.done.value

    @property
    def pending_count(self) -> int:
        """Number of callbacks waiting in the heap and the fast lane."""
        return len(self._heap) + len(self._lane)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now:.6g} pending={self.pending_count}>"
