"""Vector clocks and versioned values.

A vector clock maps node name → update counter. Clock A *descends* B when
it is at least B everywhere (A saw everything B did). Two clocks neither
of which descends the other are concurrent — their values are siblings,
and the store keeps both for the application to reconcile (§6.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple


class VectorClock:
    """An immutable-by-convention version vector: nothing writes
    ``counters`` after construction, which is what lets the hash be
    computed once (a stored clock is hashed by every anti-entropy round
    and convergence check that meets it)."""

    __slots__ = ("counters", "_hash")

    def __init__(self, counters: Mapping[str, int] | None = None) -> None:
        self.counters: Dict[str, int] = (
            {node: count for node, count in counters.items() if count > 0}
            if counters else {}
        )
        self._hash: Optional[int] = None

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise max — the least clock descending both."""
        merged = dict(self.counters)
        for node, count in other.counters.items():
            merged[node] = max(merged.get(node, 0), count)
        return VectorClock(merged)

    def descends(self, other: "VectorClock") -> bool:
        """True if self >= other pointwise (self saw everything)."""
        mine = self.counters.get
        for node, count in other.counters.items():
            if mine(node, 0) < count:
                return False
        return True

    def concurrent_with(self, other: "VectorClock") -> bool:
        return not self.descends(other) and not other.descends(self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.counters == other.counters

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(tuple(sorted(self.counters.items())))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ",".join(f"{n}:{c}" for n, c in sorted(self.counters.items()))
        return f"VC({inner})"


class VersionedValue:
    """A blob with its version clock, immutable by convention.

    One is built per write, by the coordinating client, and then shared:
    the write's PUT payloads carry it to every replica, each stores that
    object, and GET replies, repair and sync ship it on by reference.
    Written by hand rather than as a frozen dataclass, as ``Message`` is,
    since a frozen dataclass pays an ``object.__setattr__`` call per field.
    """

    __slots__ = ("value", "clock")

    def __init__(self, value: Any, clock: VectorClock) -> None:
        self.value = value
        self.clock = clock

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VersionedValue:
            return NotImplemented
        return self.value == other.value and self.clock == other.clock

    def __hash__(self) -> int:
        return hash((self.value, self.clock))

    def __repr__(self) -> str:
        return f"VersionedValue(value={self.value!r}, clock={self.clock!r})"


#: One key's sibling frontier as a replica stores it. A tuple, never
#: changed in place: a write replaces it, so a read, a checkpoint and a
#: restore can all hold the same one.
Frontier = Tuple[VersionedValue, ...]


def prune_dominated(versions: Iterable[VersionedValue]) -> List[VersionedValue]:
    """Drop versions whose clock is descended by another version's clock.

    What remains is the sibling frontier: pairwise-concurrent versions
    (plus exact duplicates collapsed).
    """
    frontier: List[VersionedValue] = []
    for candidate in versions:
        clock = candidate.clock
        for existing in frontier:
            if existing.clock.descends(clock):
                break  # dominated (or an exact duplicate clock)
        else:
            if frontier:
                frontier = [
                    existing
                    for existing in frontier
                    if not clock.descends(existing.clock)
                ]
            frontier.append(candidate)
    return frontier
