"""Cooperative synchronization primitives on top of the kernel.

- :class:`Mailbox` — unbounded FIFO of items; ``get()`` waits when empty.
  What ``Network.attach(name)`` hands a process that wants to block on
  its messages (RPC endpoints take delivery directly instead).
- :class:`Resource` — counted resource with a FIFO wait queue (a disk arm,
  a CPU); acquire/release, used with ``yield``.
- :class:`Lock` — a Resource of capacity 1 with reentrant-free semantics.

All waiting is expressed through :class:`~repro.sim.events.Event`, so these
compose with ``AllOf`` and with process interrupts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.errors import SimulationError
from repro.sim.events import Event


class Mailbox:
    """Unbounded FIFO channel between processes."""

    def __init__(self, sim: Any, name: str = "mailbox") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item; wakes one waiting getter if any."""
        if self._getters:
            self._getters.popleft().trigger(item)
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


class Resource:
    """Counted resource with FIFO queueing.

    Usage inside a process::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Any, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Event that triggers when a unit is granted."""
        event = Event(self.sim, ("%s.acquire", self.name))
        if self.in_use < self.capacity:
            self.in_use += 1
            event.trigger(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a unit; hands it straight to the next waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().trigger(self)
        else:
            self.in_use -= 1

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)


class Lock(Resource):
    """Mutual exclusion: a Resource of capacity one."""

    def __init__(self, sim: Any, name: str = "lock") -> None:
        super().__init__(sim, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self.in_use >= self.capacity
