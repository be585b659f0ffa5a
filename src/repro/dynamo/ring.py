"""Consistent hashing: the DHT under Dynamo.

Nodes own positions on a 2^32 ring (several virtual nodes each for
balance); a key's *preference list* is the first N distinct nodes walking
clockwise from the key's hash. For sloppy quorum, the walk can skip dead
nodes and keep extending — the substitute node holds the data with a hint
for its intended owner.

The ring is *elastic*: :meth:`HashRing.add_node` and
:meth:`HashRing.remove_node` splice vnode positions in place, and
:func:`moved_ranges` reports exactly which hash-space arcs changed
ownership between two ring states — the transfer list a rebalance must
move, and nothing more.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

RING_BITS = 32
RING_SIZE = 1 << RING_BITS


def ring_hash(value: str) -> int:
    digest = hashlib.sha256(value.encode()).digest()
    return int.from_bytes(digest[:4], "big")


class RingPositions(Dict[str, int]):
    """Key name → ring position, hashed on first lookup and kept.

    A position is a pure function of the key name, so one memo can serve
    every replica of a cluster without leaking state between them. It
    holds one ``int`` per distinct key ever looked up and is never
    evicted: index it only with keys that are actually stored.
    """

    def __missing__(self, key: str) -> int:
        position = self[key] = ring_hash(key)
        return position


def position_in_ranges(position: int, ranges: Iterable[Sequence[int]]) -> bool:
    """Whether a ring position lies on any ``[start, end)`` arc. An arc
    with ``start >= end`` runs through zero; ``start == end`` is the
    whole ring."""
    for start, end in ranges:
        if start < end:
            if start <= position < end:
                return True
        elif position >= start or position < end:
            return True
    return False


@dataclass(frozen=True)
class MovedRange:
    """One hash-space arc whose intended-owner list changed.

    The arc is ``[start, end)`` with wraparound: when ``start >= end`` it
    runs through zero. Every key hashing into the arc had owners
    ``old_owners`` before the reshape and ``new_owners`` after, in
    preference order.
    """

    start: int
    end: int
    old_owners: Tuple[str, ...]
    new_owners: Tuple[str, ...]

    @property
    def gained(self) -> Tuple[str, ...]:
        """Nodes that must *receive* this arc's data (new owners that
        held no replica before), in preference order."""
        old = set(self.old_owners)
        return tuple(n for n in self.new_owners if n not in old)

    @property
    def lost(self) -> Tuple[str, ...]:
        """Nodes that stop owning this arc (their copy goes stale)."""
        new = set(self.new_owners)
        return tuple(n for n in self.old_owners if n not in new)

    def contains_hash(self, h: int) -> bool:
        return position_in_ranges(h, ((self.start, self.end),))


class HashRing:
    """Consistent-hash ring over named nodes with virtual nodes."""

    def __init__(self, nodes: Sequence[str], vnodes: int = 8) -> None:
        if not nodes:
            raise SimulationError("ring needs at least one node")
        if vnodes < 1:
            raise SimulationError("vnodes must be >= 1")
        if len(set(nodes)) != len(nodes):
            duplicates = sorted({n for n in nodes if list(nodes).count(n) > 1})
            raise SimulationError(f"duplicate ring nodes {duplicates}")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        positions: List[Tuple[int, str]] = []
        for node in nodes:
            for v in range(vnodes):
                positions.append((ring_hash(f"{node}#{v}"), node))
        positions.sort()
        self._positions = positions
        self._hashes = [h for h, _node in positions]
        # n -> strict owners of every arc, indexed by bisect_right into
        # _hashes. Built on first use, dropped by every reshape.
        self._owner_tables: Dict[int, List[Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # Elastic membership

    def add_node(self, name: str) -> None:
        """Splice ``name``'s vnode positions into the ring in place.

        Keys between each new position and its predecessor change owner;
        :func:`moved_ranges` against a pre-add snapshot reports exactly
        which arcs those are.
        """
        if name in self.nodes:
            raise SimulationError(f"duplicate ring node {name!r}")
        self.nodes.append(name)
        for v in range(self.vnodes):
            h = ring_hash(f"{name}#{v}")
            index = bisect.bisect_left(self._positions, (h, name))
            self._positions.insert(index, (h, name))
            self._hashes.insert(index, h)
        self._owner_tables = {}

    def remove_node(self, name: str) -> None:
        """Remove ``name``'s vnode positions in place. The departing
        node's arcs fall to their clockwise successors."""
        if name not in self.nodes:
            raise SimulationError(f"unknown ring node {name!r}")
        if len(self.nodes) == 1:
            raise SimulationError("ring needs at least one node")
        self.nodes.remove(name)
        self._positions = [(h, n) for h, n in self._positions if n != name]
        self._hashes = [h for h, _node in self._positions]
        self._owner_tables = {}

    def clone(self) -> "HashRing":
        """An independent snapshot (for moved-range comparison)."""
        ring = HashRing.__new__(HashRing)
        ring.nodes = list(self.nodes)
        ring.vnodes = self.vnodes
        ring._positions = list(self._positions)
        ring._hashes = list(self._hashes)
        ring._owner_tables = {}
        return ring

    # ------------------------------------------------------------------
    # Lookup

    def owner(self, key: str) -> str:
        """The first node clockwise of the key."""
        return self.preference_list(key, 1)[0]

    def preference_list(
        self,
        key: str,
        n: int,
        alive: Optional[Callable[[str], bool]] = None,
    ) -> List[str]:
        """The first ``n`` distinct nodes clockwise from ``key``.

        With ``alive`` given, dead nodes are skipped and the walk keeps
        extending — the sloppy-quorum list. Without it, the strict
        (intended) owners. Returns fewer than ``n`` when the ring runs
        out of (live) nodes.

        ``alive`` must be pure: while every strict owner is alive the
        sloppy list *is* the strict one and is read from the owner
        table; only a dead owner starts the walk, which asks again.
        """
        if n < 1:
            raise SimulationError("preference list size must be >= 1")
        index = bisect.bisect_right(self._hashes, ring_hash(key))
        owners = (self._owner_tables.get(n) or self._build_owner_table(n))[index]
        if alive is not None:
            for node in owners:
                if not alive(node):
                    return self._walk(index, n, alive)
        return list(owners)

    def owners_at(self, position: int, n: int) -> List[str]:
        """The strict top-N owners for keys hashing to ``position``: one
        bisect and one read of the ring state's owner table."""
        table = self._owner_tables.get(n) or self._build_owner_table(n)
        return list(table[bisect.bisect_right(self._hashes, position)])

    def _build_owner_table(self, n: int) -> List[Tuple[str, ...]]:
        # One entry more than there are arcs: bisect_right returns
        # len(_hashes) past the last vnode, which wraps to arc 0.
        table = self._owner_tables[n] = [
            tuple(self._walk(index, n, None))
            for index in range(len(self._positions) + 1)
        ]
        return table

    def _walk(
        self, start: int, n: int, alive: Optional[Callable[[str], bool]]
    ) -> List[str]:
        seen: List[str] = []
        for offset in range(len(self._positions)):
            _pos, node = self._positions[(start + offset) % len(self._positions)]
            if node in seen:
                continue
            if alive is not None and not alive(node):
                continue
            seen.append(node)
            if len(seen) == n:
                break
        return seen

    def intended_owners(self, key: str, n: int) -> List[str]:
        """The strict top-N owners, dead or alive (for hinted handoff)."""
        return self.preference_list(key, n, alive=None)


def moved_ranges(before: HashRing, after: HashRing, n: int = 1) -> List[MovedRange]:
    """Arcs whose top-``n`` intended-owner list differs between two rings.

    The union of both rings' vnode positions cuts hash space into arcs
    that are owner-uniform in *both* rings, so comparing one probe per
    arc is exact. Adjacent arcs with identical (old, new) owner lists are
    coalesced. A rebalance needs to move exactly the keys in the arcs
    returned here — cost proportional to the reshape, not the keyspace.
    """
    bounds = sorted(set(before._hashes) | set(after._hashes))
    moved: List[MovedRange] = []
    for index, start in enumerate(bounds):
        end = bounds[(index + 1) % len(bounds)]
        old = tuple(before.owners_at(start, n))
        new = tuple(after.owners_at(start, n))
        if old == new:
            continue
        previous = moved[-1] if moved else None
        if (
            previous is not None
            and previous.end == start
            and previous.old_owners == old
            and previous.new_owners == new
        ):
            moved[-1] = MovedRange(previous.start, end, old, new)
        else:
            moved.append(MovedRange(start, end, old, new))
    # Coalesce across the zero-wrap seam as well.
    if (
        len(moved) > 1
        and moved[-1].end == moved[0].start
        and moved[-1].old_owners == moved[0].old_owners
        and moved[-1].new_owners == moved[0].new_owners
    ):
        last = moved.pop()
        moved[0] = MovedRange(
            last.start, moved[0].end, moved[0].old_owners, moved[0].new_owners
        )
    return moved
