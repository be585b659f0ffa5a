"""Structured trace log for debugging and for assertions in tests.

Records are cheap slotted objects of (time, actor, kind, payload). Tests
use ``TraceLog.find`` to assert that a protocol actually did what the
model claims (e.g. "no checkpoint message was sent before the WRITE ack
in DP2").

Formatting is *lazy*: emit sites on hot paths wrap expensive-to-render
values in :func:`lazy` instead of calling ``str()`` eagerly. The cost of
rendering is paid only when a record's ``payload`` is actually read —
records that age out of the bounded deque unread never pay it at all.
``tests/golden`` pins the rendered output bit-for-bit against fixtures
captured before this existed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


class lazy:
    """Defer ``str(obj)`` until a trace payload is read.

    The snapshot happens at read time, not emit time — callers must only
    wrap values that are stable between emit and read (messages on drop
    paths are; mutable accumulators are not).
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def render(self) -> str:
        return str(self.obj)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        # Render like the eager string it replaces, so dict reprs of
        # payloads are unchanged whether or not resolution happened.
        return repr(self.render())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, lazy):
            return self.render() == other.render()
        return self.render() == other

    def __hash__(self) -> int:
        return hash(self.render())


class TraceRecord:
    """One trace entry."""

    __slots__ = ("time", "actor", "kind", "_raw")

    def __init__(self, time: float, actor: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.actor = actor
        self.kind = kind
        self._raw = payload if payload is not None else {}

    @property
    def payload(self) -> Dict[str, Any]:
        """The payload with any :func:`lazy` values rendered to strings.

        Resolution mutates ``_raw`` in place so each value renders at
        most once, and so ``payload`` stays the same dict identity across
        reads (tests mutate and re-read it).
        """
        raw = self._raw
        for key, value in raw.items():
            if type(value) is lazy:
                raw[key] = value.render()
        return raw

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
