"""Reference model: the closure-based ``Process`` the kernel shipped with
before the allocation-free wait protocol, frozen verbatim (commit 8cdee62).

Test-only. ``test_process_differential.py`` runs generated programs under
this class and under :class:`repro.sim.process.Process` and requires the
same resumes at the same simulated times in the same number of steps. It
depends only on the public surface of :mod:`repro.sim.events`
(``add_callback``, ``triggered``, ``value``, ``exception``) plus
``_Condition._as_events``, so it keeps working as the kernel changes.

Known limit of this model, which the differential generator respects: an
``interrupt()`` issued while the victim is *not* blocked in a wait (it is
running, not yet started, or already has a throw queued) is delivered by
a direct ``_resume`` that does not invalidate the wait begun in between,
so a victim that survives the interrupt is later resumed twice.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InterruptError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout, PENDING


class _Wait:
    """A single outstanding wait; invalidated when the process is
    interrupted so a stale resume cannot fire twice."""

    __slots__ = ("valid",)

    def __init__(self) -> None:
        self.valid = True


class Process:
    """A running simulated process. Waitable: ``yield process`` waits for
    completion, as does ``process.done``."""

    __slots__ = ("sim", "name", "gen", "done", "_wait")

    def __init__(self, sim: Any, gen: Generator[Any, Any, Any], name: str) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done: Event = Event(sim, name=f"{name}.done")
        self._wait: Optional[_Wait] = None
        # Kick off on the next kernel step at the current time.
        sim.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.done.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process (fail-fast crash).

        No-op on a finished process. The throw happens immediately (same
        simulated time, next kernel step).
        """
        if not self.alive:
            return
        if self._wait is not None:
            self._wait.valid = False
            self._wait = None
        self.sim.schedule(0.0, self._resume, None, InterruptError(cause))

    # ------------------------------------------------------------------
    # Kernel-facing machinery

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.alive:
            return
        self._wait = None
        try:
            if exc is not None:
                effect = self.gen.throw(exc)
            else:
                effect = self.gen.send(value)
        except StopIteration as stop:
            self.done.trigger(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - process death
            self.done.fail(failure)
            return
        self._install(effect)

    def _install(self, effect: Any) -> None:
        """Arrange for the process to be resumed when ``effect`` completes."""
        wait = _Wait()
        self._wait = wait

        def resume_ok(value: Any) -> None:
            if wait.valid:
                self._resume(value, None)

        def resume_event(event: Event) -> None:
            if not wait.valid:
                return
            if event.exception is not None:
                self._resume(None, event.exception)
            else:
                self._resume(event.value, None)

        if isinstance(effect, Timeout):
            self.sim.schedule(effect.delay, resume_ok, effect.value)
        elif isinstance(effect, Event):
            effect.add_callback(resume_event)
        elif isinstance(effect, Process):
            effect.done.add_callback(resume_event)
        elif isinstance(effect, (AnyOf, AllOf)):
            try:
                self._install_condition(effect, wait)
            except SimulationError as exc:
                # A bad member (not waitable) kills this process, not the
                # kernel's run loop.
                wait.valid = False
                self.sim.schedule(0.0, self._resume, None, exc)
        else:
            self._resume(
                None,
                SimulationError(f"process {self.name!r} yielded {effect!r}"),
            )

    def _install_condition(self, effect: Any, wait: _Wait) -> None:
        events = effect._as_events(self.sim)
        if not events:
            self.sim.schedule(0.0, lambda: wait.valid and self._resume({}, None))
            return
        need_all = isinstance(effect, AllOf)
        state = {"settled": False, "remaining": len(events)}

        def finish() -> None:
            if state["settled"] or not wait.valid:
                return
            state["settled"] = True
            failures = [e.exception for e in events if e.triggered and e.exception]
            if failures:
                self._resume(None, failures[0])
                return
            values = {
                e: (None if e._value is PENDING else e._value)
                for e in events
                if e.triggered
            }
            self._resume(values, None)

        def on_settle(_event: Event) -> None:
            state["remaining"] -= 1
            if not need_all or state["remaining"] == 0:
                finish()

        for event in events:
            event.add_callback(on_settle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
