"""Structured trace log for debugging and for assertions in tests.

Records are cheap slotted objects of (time, actor, kind, payload). Tests
use ``TraceLog.find`` to assert that a protocol actually did what the
model claims (e.g. "no checkpoint message was sent before the WRITE ack
in DP2").

An emit site passes what the record should show, already rendered where
holding the object itself would keep it alive: a dropped message is
recorded as its one-line ``repr``, so the record never pins the payload.
``tests/golden`` pins the rendered output bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


class TraceRecord:
    """One trace entry."""

    __slots__ = ("time", "actor", "kind", "payload")

    def __init__(self, time: float, actor: str, kind: str,
                 payload: Dict[str, Any]) -> None:
        self.time = time
        self.actor = actor
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"[{self.time:.6g}] {self.actor} {self.kind} {self.payload}"


class TraceLog:
    """Bounded in-memory trace; optionally disabled for big runs."""

    def __init__(self, sim: Any, capacity: Optional[int] = 10000) -> None:
        self._sim = sim
        self.enabled = True
        self.capacity = capacity
        self.dropped = 0
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)

    def emit(self, actor: str, kind: str, **payload: Any) -> None:
        """Append a record at the current simulated time.

        When the capacity bound evicts an old record, ``dropped`` counts
        it — assertions over the trace can check the evidence is complete
        instead of passing vacuously on a truncated log.
        """
        if not self.enabled:
            return
        records = self.records
        if self.capacity is not None and len(records) >= self.capacity:
            self.dropped += 1
        records.append(TraceRecord(self._sim.now, actor, kind, payload))

    def find(
        self,
        kind: Optional[str] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """All records matching the given filters, in time order."""
        return list(self.iter(kind=kind, actor=actor, predicate=predicate))

    def iter(
        self,
        kind: Optional[str] = None,
        actor: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> Iterator[TraceRecord]:
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if actor is not None and record.actor != actor:
                continue
            if predicate is not None and not predicate(record):
                continue
            yield record

    def count(self, kind: Optional[str] = None, actor: Optional[str] = None) -> int:
        return sum(1 for _ in self.iter(kind=kind, actor=actor))

    def tail(self, count: int) -> List[TraceRecord]:
        """The last ``count`` records (debug context for violations)."""
        if count <= 0:
            return []
        return list(self.records)[-count:]
