"""Cooperative synchronization primitives on top of the kernel.

- :class:`Mailbox` — unbounded FIFO of items; ``get()`` waits when empty.
  What ``Network.attach(name)`` hands a process that wants to block on
  its messages (RPC endpoints take delivery directly instead).
- :class:`Lock` — mutual exclusion with a FIFO wait queue (a disk arm,
  an account); acquire/release, used with ``yield``, not reentrant.

All waiting is expressed through :class:`~repro.sim.events.Event`, so these
compose with ``AllOf`` and with process interrupts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.events import Event


def _next_waiter(waiters: Deque[Event]) -> Optional[Event]:
    """Pop the oldest event still waited on. An interrupted process
    leaves its event's callback list, and an item or the lock handed to
    that event would be lost."""
    while waiters:
        event = waiters.popleft()
        if event._callbacks:
            return event
    return None


class Mailbox:
    """Unbounded FIFO channel between processes."""

    def __init__(self, sim: Any, name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes one waiting getter if any."""
        getter = _next_waiter(self._getters)
        if getter is not None:
            getter.trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that triggers with the next item (now, if available)."""
        event = Event(self.sim, ("%s.get", self.name))
        if self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)

    def drain(self) -> list:
        """Remove and return all queued items (used on crash: in-flight
        work inside a dead component is simply gone)."""
        items = list(self._items)
        self._items.clear()
        return items


class Lock:
    """Mutual exclusion with a FIFO wait queue (a disk arm, an account).

    Usage inside a process::

        yield lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, sim: Any, name: str = "lock") -> None:
        self.sim = sim
        self.name = name
        self.locked = False
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Event that triggers when the lock is granted."""
        event = Event(self.sim, ("%s.acquire", self.name))
        if not self.locked:
            self.locked = True
            event.trigger(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free the lock; hands it straight to the next waiter if any."""
        if not self.locked:
            raise SimulationError(f"release() of idle lock {self.name!r}")
        waiter = _next_waiter(self._waiters)
        if waiter is not None:
            waiter.trigger(self)
        else:
            self.locked = False

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)
