"""Waitable events and the effects processes yield to the kernel.

An :class:`Event` is a one-shot broadcast: it is pending until someone calls
:meth:`Event.trigger` (success, with a value) or :meth:`Event.fail`
(failure, with an exception), after which every waiter is resumed. Events
never un-trigger; waiting on an already-triggered event resumes immediately.

Effects are plain descriptor objects; the kernel interprets them when a
process yields:

- ``yield Timeout(dt)`` — sleep for ``dt`` simulated seconds.
- ``yield some_event`` — wait; the yield evaluates to the event's value.
- ``yield some_process`` — wait for the process to finish (its ``done``
  event); the yield evaluates to the process's return value.
- ``yield AllOf([...])`` — wait until all complete; evaluates to a dict
  mapping the events to their values.

Names are for error messages and ``repr`` only, so the request path never
formats one: a name may be given as a ``(template, *args)`` tuple, which
:func:`render_name` turns into ``template % args`` when somebody reads
``.name``. An argument may itself be such a tuple (a process's
``done`` event is named after the process, whose name may still be parts).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError

#: A ready string, or ``(template, *args)`` to be %-formatted when read.
Name = Union[str, Tuple[Any, ...]]


def render_name(name: Name) -> str:
    """The string a :data:`Name` stands for."""
    if name.__class__ is str:
        return name
    return name[0] % tuple(
        render_name(arg) if arg.__class__ is tuple else arg for arg in name[1:]
    )


class _Pending:
    """Sentinel for "no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot waitable with an optional value or failure exception."""

    # ``_callbacks`` is the event's whole state machine: a list while the
    # event is pending, None once it has settled.
    __slots__ = ("sim", "_name", "_value", "_exc", "_callbacks")

    def __init__(self, sim: Any, name: Name = "") -> None:
        self.sim = sim
        self._name = name
        self._value: Any = PENDING
        self._exc: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []

    @property
    def name(self) -> str:
        return render_name(self._name)

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return self._callbacks is None and self._exc is None

    @property
    def value(self) -> Any:
        """The success value. Raises if the event failed or is pending."""
        if self._callbacks is not None:
            raise SimulationError(f"event {self.name!r} has no value yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exc

    def trigger(self, value: Any = None) -> "Event":
        """Succeed the event, resuming all waiters with ``value``."""
        callbacks = self._callbacks
        if callbacks is None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._value = value
        self._callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fail the event, raising ``exc`` inside all waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        callbacks = self._callbacks
        if callbacks is None:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._exc = exc
        self._callbacks = None
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event settles (now if settled)."""
        callbacks = self._callbacks
        if callbacks is None:
            callback(self)
        else:
            callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self._callbacks is None:
            state = "failed" if self._exc is not None else "ok"
        return f"<Event {self.name!r} {state}>"


class Timeout:
    """Effect: sleep for ``delay`` simulated seconds, then resume with
    :attr:`value`, which is None."""

    __slots__ = ("delay",)
    value = None

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay})"


class AllOf:
    """Effect: resume when all contained events/processes settle."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Any]) -> None:
        self.events = list(events)

    def _as_events(self) -> List[Event]:
        resolved = []
        for item in self.events:
            event = getattr(item, "done", item)
            if not isinstance(event, Event):
                raise SimulationError(f"cannot wait on {item!r}")
            resolved.append(event)
        return resolved
