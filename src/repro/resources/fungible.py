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
from typing import Deque, Dict, Optional, Set

from repro.errors import SimulationError


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
