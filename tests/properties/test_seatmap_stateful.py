"""Stateful hypothesis test: the §7.3 seat invariant holds under any
interleaving of holds, purchases, and clock advances."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.resources import SeatMap, SeatState
from repro.sim import Simulator

SEATS = ["s0", "s1", "s2"]
SESSIONS = ["alice", "bob", "eve"]


class SeatMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.seats = SeatMap(self.sim, SEATS, pending_timeout=60.0)
        self.model_purchased = set()

    @rule(seat=st.sampled_from(SEATS), session=st.sampled_from(SESSIONS))
    def hold(self, seat, session):
        was_available = self.seats.state_of(seat) is SeatState.AVAILABLE
        result = self.seats.hold(seat, session)
        assert result == was_available

    @rule(seat=st.sampled_from(SEATS), session=st.sampled_from(SESSIONS))
    def purchase(self, seat, session):
        could = (
            self.seats.state_of(seat) is SeatState.PENDING
            and self.seats.seats[seat].session == session
        )
        result = self.seats.purchase(seat, session, session)
        assert result == could
        if result:
            self.model_purchased.add(seat)

    @rule(dt=st.floats(min_value=0.1, max_value=100.0))
    def advance_time(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @invariant()
    def seat_invariant_holds(self):
        self.seats.check_invariant()

    @invariant()
    def purchases_are_permanent(self):
        """A purchased seat never reverts — not even via timeout."""
        for seat in self.model_purchased:
            assert self.seats.state_of(seat) is SeatState.PURCHASED

    @invariant()
    def no_pending_survives_past_its_window(self):
        """After a long-enough quiet advance, nothing is stuck pending.
        (Checked opportunistically: if the heap is drained and time has
        moved past every scheduled expiry, pendings must be gone.)"""
        if self.sim.pending_count == 0:
            for seat_id in SEATS:
                assert self.seats.state_of(seat_id) is not SeatState.PENDING or (
                    self.seats.pending_timeout is None
                )


TestSeatMachine = SeatMachine.TestCase
TestSeatMachine.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)
