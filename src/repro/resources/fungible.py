"""Fungible pools (§7.4): you can't reserve room 301, but you can have a
king non-smoking.

Grants are idempotent by uniquifier: the same request (or its retry, or
its over-zealous second execution at another replica) maps to the same
unit. Units are interchangeable, so a redundant grant discovered later is
simply returned to the pool — the fungibility is exactly what makes the
apology cheap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class UnitConflict:
    """One physical unit promised to two different holders — the grant
    that cannot be merged away. ``ours``/``theirs`` are the uniquifiers
    holding ``unit`` on each side."""

    unit: int
    ours: str
    theirs: str


@dataclass(frozen=True)
class ReconcileReport:
    """What :meth:`FungiblePool.reconcile_with` found.

    ``returned`` counts duplicated grants (same uniquifier on both sides
    — the same work done twice, §7.5) whose redundant unit was returned
    here. ``conflicts`` are NOT resolved: somebody was told yes and the
    truth is no, and deciding who — and apologizing — is the caller's
    job (see :func:`repro.txn.apology.reconcile_pools`)."""

    returned: int
    conflicts: Tuple[UnitConflict, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.conflicts


class FungiblePool:
    """``capacity`` interchangeable units of one category.

    Units never granted are handed out in order from a counter, then
    released units first-in first-out: O(1) per grant, and nothing held
    per unit the pool has never handed out."""

    def __init__(self, category: str, capacity: int) -> None:
        if capacity < 0:
            raise SimulationError("capacity must be non-negative")
        self.category = category
        self.capacity = capacity
        self._fresh = 0  # units [0, _fresh) have been granted at least once
        self._released: Deque[int] = deque()
        self._grants: Dict[str, int] = {}  # uniquifier -> unit
        self.returned_redundant = 0

    # ------------------------------------------------------------------

    def allocate(self, uniquifier: str) -> Optional[int]:
        """Grant one unit; a repeat of the same uniquifier returns the
        same unit (idempotent). None when the pool is empty."""
        if uniquifier in self._grants:
            return self._grants[uniquifier]
        if self._fresh < self.capacity:
            unit = self._fresh
            self._fresh += 1
        elif self._released:
            unit = self._released.popleft()
        else:
            return None
        self._grants[uniquifier] = unit
        return unit

    def release(self, uniquifier: str) -> bool:
        """Give a grant back (cancellation)."""
        unit = self._grants.pop(uniquifier, None)
        if unit is None:
            return False
        self._released.append(unit)
        return True

    def reconcile_with(self, other: "FungiblePool") -> ReconcileReport:
        """Two replicas of the pool compare grants.

        Any uniquifier granted on both sides had its work done twice
        (§7.5); the duplicate unit is returned here — that merge is safe
        because both sides told the *same* client yes. But the same
        *unit* held by two **different** uniquifiers is a real conflict:
        merging it silently would pick a loser without telling them.
        Those are reported, untouched, for the apology path to settle.
        """
        if other.category != self.category:
            raise SimulationError("cannot reconcile different categories")
        duplicated: Set[str] = set(self._grants) & set(other._grants)
        returned = 0
        for uniquifier in sorted(duplicated):
            # Keep the other side's grant; return ours.
            self.release(uniquifier)
            returned += 1
        self.returned_redundant += returned
        theirs_by_unit = {
            unit: uniquifier
            for uniquifier, unit in other._grants.items()
            if uniquifier not in duplicated
        }
        conflicts = tuple(
            UnitConflict(unit=unit, ours=uniquifier, theirs=theirs_by_unit[unit])
            for uniquifier, unit in sorted(self._grants.items())
            if unit in theirs_by_unit
        )
        return ReconcileReport(returned=returned, conflicts=conflicts)

    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        return self.capacity - self._fresh + len(self._released)

    @property
    def granted_count(self) -> int:
        return len(self._grants)

    def holder_of(self, uniquifier: str) -> Optional[int]:
        return self._grants.get(uniquifier)

    def granted_uniquifiers(self) -> Set[str]:
        """The uniquifiers currently holding a unit (invariant checks)."""
        return set(self._grants)
