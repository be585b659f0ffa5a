"""Simulated processes: generators driven by the kernel.

A process is created from a generator via :meth:`Simulator.spawn`. Each
``yield`` hands an effect (see :mod:`repro.sim.events`) to the kernel; the
kernel resumes the generator when the effect completes. A process finishes
when its generator returns (``done`` triggers with the return value) or
raises (``done`` fails with the exception).

Crashes are modelled with :meth:`Process.interrupt`: an
:class:`~repro.errors.InterruptError` is thrown into the generator at the
point it is waiting, which is exactly the fail-fast semantics of §2.2 — the
process either handles it (rare; used for cleanup) or dies immediately.

The wait protocol allocates nothing per ``yield``:

- **Target slot.** A process blocked on an :class:`Event` sits in that
  event's callback list *itself* (it is callable) and names the event in
  ``_target``; a settle that finds ``_target`` pointing elsewhere skips it.
  ``AllOf`` puts one :class:`_Composite` in the slot and in every
  member's list.
- **Interrupt epoch.** A ``Timeout`` has nothing to sit in, so its wake-up
  carries the epoch it was scheduled under and is dropped if the process
  has been interrupted since.
- **Removal on interrupt.** ``interrupt()`` takes the process out of its
  event's list, so waiting on the same event again after catching the
  interrupt queues it behind everyone who arrived meanwhile, once.
"""

from __future__ import annotations

import inspect
from typing import Any, Generator, List, Optional

from repro.errors import InterruptError, SimulationError
from repro.sim.events import AllOf, Event, Name, Timeout, render_name


class _Composite:
    """One outstanding ``AllOf`` wait: the callback registered
    on every member and the process's ``_target`` while it lasts."""

    __slots__ = ("proc", "events", "remaining")

    def __init__(self, proc: "Process", events: List[Event], remaining: int) -> None:
        self.proc = proc
        self.events = events
        #: Members still to settle before the process resumes.
        self.remaining = remaining

    def __call__(self, _event: Event) -> None:
        self.remaining -= 1
        proc = self.proc
        if self.remaining > 0 or proc._target is not self:
            return
        settled = [e for e in self.events if e._callbacks is None]
        for event in settled:
            if event._exc is not None:
                proc._resume(None, event._exc)
                return
        proc._resume({event: event._value for event in settled}, None)


class Process:
    """A running simulated process. Waitable: ``yield process`` waits for
    completion, as does ``process.done``."""

    __slots__ = ("sim", "_name", "gen", "done", "_target", "_epoch")

    def __init__(
        self, sim: Any, gen: Generator[Any, Any, Any], name: Name,
        _start_now: bool = False,
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self._name = name
        self.gen = gen
        self.done: Event = Event(sim, ("%s.done", name))
        #: The Event or _Composite this process is blocked on, if any.
        self._target: Any = None
        #: Bumped by every interrupt; outdates a pending Timeout wake-up.
        self._epoch = 0
        if _start_now:
            # The caller is itself the kernel step this process starts in
            # (the RPC layer, which learns that a handler is a generator
            # only by calling it): run the first segment here.
            self._resume(None, None)
        else:
            # Kick off on the next kernel step at the current time.
            sim.schedule(0.0, self._resume, None, None)

    @property
    def name(self) -> str:
        return render_name(self._name)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self.done._callbacks is not None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process (fail-fast crash).

        No-op on a finished process. The throw happens immediately (same
        simulated time, next kernel step). A process that has not taken
        its first step never runs: that queued step throws instead.
        """
        if self.done._callbacks is None:
            return
        self._abandon_wait()
        if inspect.getgeneratorstate(self.gen) == inspect.GEN_CREATED:
            self.gen.close()
            self.gen = _stillborn(InterruptError(cause))
            return
        self.sim.schedule(0.0, _throw, self, InterruptError(cause))

    # ------------------------------------------------------------------
    # Kernel-facing machinery

    def _abandon_wait(self) -> None:
        self._epoch += 1
        target, self._target = self._target, None
        # A composite stays in its members' lists; it checks the slot.
        if isinstance(target, Event) and target._callbacks is not None:
            target._callbacks.remove(self)

    def __call__(self, event: Event) -> None:
        """``event`` settled with this process in its callback list."""
        if self._target is event:
            self._resume(event._value, event._exc)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        """Run the generator until it blocks or finishes. Callers have
        established that the process is alive and this wake-up current."""
        self._target = None
        gen = self.gen
        while True:
            try:
                if exc is None:
                    effect = gen.send(value)
                else:
                    effect = gen.throw(exc)
            except StopIteration as stop:
                self.done.trigger(stop.value)
                return
            except BaseException as failure:  # noqa: BLE001 - process death
                self.done.fail(failure)
                return
            kind = effect.__class__
            if kind is not Timeout and kind is not Event and kind is not Process:
                kind = _effect_kind(effect)
            if kind is Timeout:
                self.sim.schedule(effect.delay, _wake, self, self._epoch, None)
                return
            if kind is Event:
                event = effect
            elif kind is Process:
                event = effect.done
            elif kind is AllOf:
                self._wait_composite(effect)
                return
            else:
                value = None
                exc = SimulationError(f"process {self.name!r} yielded {effect!r}")
                continue
            callbacks = event._callbacks
            if callbacks is not None:
                self._target = event
                callbacks.append(self)
                return
            # Already settled: carry on at once, in this same kernel step.
            value, exc = event._value, event._exc

    def _wait_composite(self, effect: Any) -> None:
        try:
            events = effect._as_events()
        except SimulationError as exc:
            # A bad member (not waitable) kills this process, not the
            # kernel's run loop.
            self.sim.schedule(0.0, _throw, self, exc)
            return
        if not events:
            self.sim.schedule(0.0, _wake, self, self._epoch, {})
            return
        wait = self._target = _Composite(self, events, len(events))
        for event in events:
            event.add_callback(wait)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


def _effect_kind(effect: Any) -> Optional[type]:
    """Which of the four effect kinds a subclass instance (or a composite)
    is; None for something that is not an effect at all."""
    for kind in (Timeout, Event, Process, AllOf):
        if isinstance(effect, kind):
            return kind
    return None


def _wake(proc: Process, epoch: int, value: Any) -> None:
    """A Timeout elapsed; stale if the process was interrupted meanwhile."""
    if proc._epoch == epoch:
        proc._resume(value, None)


def _stillborn(exc: BaseException) -> Generator[Any, Any, Any]:
    """The body of a process interrupted before its first step."""
    raise exc
    yield  # pragma: no cover - makes this a generator


def _throw(proc: Process, exc: BaseException) -> None:
    """Deliver a queued interrupt (or wait-set error) into ``proc``."""
    if proc.done._callbacks is not None:
        # The process may have begun a new wait while this was queued.
        proc._abandon_wait()
        proc._resume(None, exc)
