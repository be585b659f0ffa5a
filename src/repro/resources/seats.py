"""The seat-reservation pattern (§7.3).

Seats are unique, not fungible; the business rule is that a seat is
either available or occupied-with-a-valid-purchase. Online buyers are
untrusted agents, so holding a database transaction open for them is an
invitation to hoard. The pattern: three explicit states —

1. ``available``
2. ``pending`` (session-identity, bounded by a timeout)
3. ``purchased`` (purchaser-identity)

— each transition a small database transaction, plus a cleanup timer
for abandoned pendings. Constructing the map with
``pending_timeout=None`` models the broken no-timeout variant the
experiment's hoarding attacker exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator


class SeatState(str, enum.Enum):
    AVAILABLE = "available"
    PENDING = "pending"
    PURCHASED = "purchased"


@dataclass
class _Seat:
    state: SeatState = field(default=SeatState.AVAILABLE, init=False)
    session: Optional[str] = field(default=None, init=False)
    purchaser: Optional[str] = field(default=None, init=False)
    generation: int = field(default=0, init=False)  # guards stale timeout callbacks


class SeatMap:
    """All seats for one event."""

    def __init__(
        self,
        sim: Simulator,
        seat_ids: List[str],
        pending_timeout: Optional[float] = 120.0,
    ) -> None:
        if not seat_ids:
            raise SimulationError("need at least one seat")
        self.sim = sim
        self.pending_timeout = pending_timeout
        self.seats: Dict[str, _Seat] = {seat_id: _Seat() for seat_id in seat_ids}
        self.expired_holds = 0
        self.purchases = 0

    # ------------------------------------------------------------------
    # Transitions (each one "a database transaction")

    def hold(self, seat_id: str, session: str) -> bool:
        """available → pending. Arms the cleanup when a timeout is
        configured. Returns False if the seat is not available."""
        seat = self._seat(seat_id)
        if seat.state is not SeatState.AVAILABLE:
            return False
        seat.state = SeatState.PENDING
        seat.session = session
        seat.generation += 1
        if self.pending_timeout is not None:
            self.sim.schedule(
                self.pending_timeout, self._expire, seat_id, seat.generation
            )
        return True

    def purchase(self, seat_id: str, session: str, purchaser: str) -> bool:
        """pending → purchased, only by the holding session."""
        seat = self._seat(seat_id)
        if seat.state is not SeatState.PENDING or seat.session != session:
            return False
        seat.state = SeatState.PURCHASED
        seat.session = None
        seat.purchaser = purchaser
        seat.generation += 1
        self.purchases += 1
        return True

    def _expire(self, seat_id: str, generation: int) -> None:
        """The cleanup: a pending hold past its window is undone. The
        generation check ignores stale timers from earlier holds."""
        seat = self.seats[seat_id]
        if seat.state is SeatState.PENDING and seat.generation == generation:
            self._make_available(seat)
            self.expired_holds += 1
            self.sim.metrics.inc("seats.expired_holds")

    @staticmethod
    def _make_available(seat: _Seat) -> None:
        seat.state = SeatState.AVAILABLE
        seat.session = None
        seat.generation += 1

    # ------------------------------------------------------------------
    # Views & invariants

    def state_of(self, seat_id: str) -> SeatState:
        return self._seat(seat_id).state

    def available_seats(self) -> List[str]:
        return [sid for sid, seat in self.seats.items() if seat.state is SeatState.AVAILABLE]

    def counts(self) -> Dict[str, int]:
        tally = {state.value: 0 for state in SeatState}
        for seat in self.seats.values():
            tally[seat.state.value] += 1
        return tally

    def check_invariant(self) -> None:
        """The §7.3 business rule, as a checkable assertion: every seat is
        available, pending-with-session, or purchased-with-purchaser."""
        for seat_id, seat in self.seats.items():
            ok = (
                (seat.state is SeatState.AVAILABLE and seat.session is None)
                or (seat.state is SeatState.PENDING and seat.session is not None)
                or (seat.state is SeatState.PURCHASED and seat.purchaser is not None)
            )
            if not ok:
                raise SimulationError(f"seat {seat_id} violates the invariant: {seat}")

    def _seat(self, seat_id: str) -> _Seat:
        if seat_id not in self.seats:
            raise SimulationError(f"unknown seat {seat_id!r}")
        return self.seats[seat_id]
