"""One recorded client history, and the one checker over it.

Two promises about acknowledged work: an acked write is not lost (§5.1,
§6.1: the unacceptable apology), and a uniquifier has one effect (§2.1,
§6.2). Workloads record each call as an :class:`Op`, servers each effect
as ``(uniquifier, scope)``; :func:`lost_acks` and
:func:`at_most_one_effect` judge a run from that record and a read-only
observation. Recording draws no randomness and schedules nothing.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Collection, Dict, Iterable, List, Optional, Tuple,
)

from repro.sim.scheduler import Simulator

#: Op kinds: a ``put`` replaces the key's value, an ``add`` accumulates.
PUT, ADD = "put", "add"
#: Outcomes: told yes; told no; never told (the op may have landed).
OK, FAILED, UNKNOWN = "ok", "failed", "unknown"

#: A read-only observation: key -> every value the system holds for it.
Held = Callable[[Any], Collection[Any]]


class Op:
    """One client call; ``completed`` and ``outcome`` are None in flight."""

    __slots__ = ("client", "kind", "key", "value", "invoked", "completed", "outcome")

    def __init__(
        self, client: str, kind: str, key: Any, value: Any, invoked: float
    ) -> None:
        self.client, self.kind, self.key, self.value = client, kind, key, value
        self.invoked = invoked
        self.completed: Optional[float] = None
        self.outcome: Optional[str] = None


Lost = List[Tuple[Op, Collection[Any]]]


class History:
    """Every op invoked, in invocation order, and every effect recorded."""

    __slots__ = ("sim", "ops", "effects")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.ops: List[Op] = []
        self.effects: List[Tuple[Any, Any]] = []

    def invoke(self, client: str, kind: str, key: Any, value: Any) -> Op:
        op = Op(client, kind, key, value, self.sim.now)
        self.ops.append(op)
        return op

    def complete(self, op: Op, outcome: str) -> None:
        op.completed, op.outcome = self.sim.now, outcome

    def effect(self, uniquifier: Any, scope: Any) -> None:
        self.effects.append((uniquifier, scope))


def lost_acks(
    history: History, held: Held, counted: Optional[Callable[[Op], bool]] = None
) -> Lost:
    """Acked-is-durable's findings, each with what ``held`` shows for its
    key: every acked ``add`` whose value is absent, and every key whose
    latest acked ``put`` (by completion, then invocation) is not held.
    ``counted`` leaves out acks the system may lose. In key order, so the
    first finding does not depend on the schedule."""
    owed: List[Op] = []
    latest: Dict[Any, Op] = {}
    for op in history.ops:
        if op.outcome != OK or (counted is not None and not counted(op)):
            continue
        if op.kind == ADD:
            owed.append(op)
        elif op.key not in latest or op.completed >= latest[op.key].completed:
            latest[op.key] = op
    lost: Lost = []
    for op in owed + list(latest.values()):
        values = held(op.key)
        if op.value not in values:
            lost.append((op, values))
    return sorted(lost, key=lambda finding: finding[0].key)


def acked_is_durable(lost: Lost) -> Optional[str]:
    """The verdict on :func:`lost_acks`' findings: their count and the first."""
    if not lost:
        return None
    op, values = lost[0]
    if op.kind == ADD:
        first = f"{op.key} lacks {op.value!r}"
    else:
        held = ", ".join(sorted(map(repr, values))) or "nothing"
        first = f"{op.key}={op.value!r}, held: {held}"
    return f"{len(lost)} acked writes lost, first: {first}"


def at_most_one_effect(effects: Iterable[Tuple[Any, Any]]) -> Optional[str]:
    """The first ``(uniquifier, scope)`` effect that occurs twice, if any."""
    seen = set()
    for effect in effects:
        if effect in seen:
            return f"uniquifier {effect[0]!r} took effect twice in {effect[1]!r}"
        seen.add(effect)
    return None
