"""Escrow locking (§5.3 sidebar).

Commutative increments/decrements interleave freely as long as the
*worst case* of all pending transactions stays at or above the value's
floor of zero. Changes are operation-logged ("Transaction T1
subtracted $10"), so abort is the inverse operation, not a before-image
restore. A READ "does not commute, is annoying, and stops other
concurrent work": it must wait for every pending transaction to settle,
and later arrivals queue behind it (strict FIFO, no starvation).

:class:`ExclusiveAccount` is the classic serializable baseline — one
transaction at a time — used by experiment E6 to show the concurrency
escrow buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import EscrowOverflow, SimulationError
from repro.sim.events import Event
from repro.sim.scheduler import Simulator
from repro.sim.sync import Lock


@dataclass
class _Waiter:
    kind: str  # "reserve" | "read"
    txn_id: Any
    delta: float
    event: Event


class EscrowAccount:
    """A numeric value under escrow locking."""

    #: The floor no worst case may go below.
    minimum = 0.0

    def __init__(self, sim: Simulator, initial: float, name: str = "escrow") -> None:
        if initial < self.minimum:
            raise SimulationError(f"initial {initial} below the floor {self.minimum}")
        self.sim = sim
        self.name = name
        self.value = initial
        self._pending: Dict[Any, List[float]] = {}
        self.operation_log: List[Tuple[Any, float]] = []
        self._queue: List[_Waiter] = []

    # ------------------------------------------------------------------
    # Worst-case accounting

    @property
    def worst_case_low(self) -> float:
        """Value if every pending decrement commits and no increment does."""
        return self.value + sum(
            d for deltas in self._pending.values() for d in deltas if d < 0
        )

    @property
    def worst_case_high(self) -> float:
        """Value if every pending increment commits and no decrement does."""
        return self.value + sum(
            d for deltas in self._pending.values() for d in deltas if d > 0
        )

    def _fits(self, delta: float) -> bool:
        return delta >= 0 or self.worst_case_low + delta >= self.minimum

    @property
    def pending_txns(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Operations

    def reserve(self, txn_id: Any, delta: float) -> Generator[Any, Any, None]:
        """Reserve ``delta`` for ``txn_id``; waits while the worst case
        might breach the floor (or while earlier waiters are queued)."""
        if self._queue or not self._fits(delta):
            waiter = _Waiter("reserve", txn_id, delta, self.sim.event(f"{self.name}.reserve"))
            self._queue.append(waiter)
            yield waiter.event
        self._grant(txn_id, delta)
        return None

    def _grant(self, txn_id: Any, delta: float) -> None:
        if not self._fits(delta):
            raise EscrowOverflow(
                f"{self.name}: delta {delta} breaches worst case "
                f"[{self.worst_case_low}, {self.worst_case_high}]"
            )
        self._pending.setdefault(txn_id, []).append(delta)
        self.operation_log.append((txn_id, delta))
        self.sim.metrics.inc(f"escrow.{self.name}.reserves")

    def commit(self, txn_id: Any) -> None:
        """Apply all of a transaction's reserved deltas to the value."""
        deltas = self._pending.pop(txn_id, [])
        self.value += sum(deltas)
        self._wake()

    def abort(self, txn_id: Any) -> None:
        """Inverse-operation rollback: reservations simply evaporate."""
        self._pending.pop(txn_id, None)
        self._wake()

    def read(self) -> Generator[Any, Any, float]:
        """A serializable READ: waits for every pending transaction, and
        blocks later arrivals until it has run (the annoying bit)."""
        if self._queue or self._pending:
            waiter = _Waiter("read", None, 0.0, self.sim.event(f"{self.name}.read"))
            self._queue.append(waiter)
            yield waiter.event
        self.sim.metrics.inc(f"escrow.{self.name}.reads")
        return self.value

    # ------------------------------------------------------------------

    def _wake(self) -> None:
        """Grant queued waiters strictly in order; stop at the first one
        that still cannot run."""
        while self._queue:
            head = self._queue[0]
            if head.kind == "read":
                if self._pending:
                    return
                self._queue.pop(0)
                head.event.trigger(None)
            else:
                if not self._fits(head.delta):
                    return
                self._queue.pop(0)
                head.event.trigger(None)


class ExclusiveAccount:
    """The serializable baseline: one transaction holds the whole account."""

    name = "exclusive"
    minimum = EscrowAccount.minimum

    def __init__(self, sim: Simulator, initial: float) -> None:
        self.sim = sim
        self.value = initial
        self._lock = Lock(sim, name=f"{self.name}.lock")

    def acquire(self) -> Event:
        """Take the account lock (FIFO)."""
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def add(self, delta: float) -> None:
        """Apply a delta while holding the lock; enforces the floor."""
        if self.value + delta < self.minimum:
            raise EscrowOverflow(f"{self.name}: {self.value}+{delta} below the floor")
        self.value += delta

    def read(self) -> float:
        """Read while holding the lock."""
        return self.value
