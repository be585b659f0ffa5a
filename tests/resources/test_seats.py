"""Seat reservation: state machine, timeout cleanup, hoarding."""

import pytest

from repro.errors import SimulationError
from repro.resources import SeatMap, SeatState
from repro.sim import Simulator


def make_map(pending_timeout=120.0, n=4):
    sim = Simulator()
    seats = SeatMap(sim, [f"s{i}" for i in range(n)], pending_timeout=pending_timeout)
    return sim, seats


def test_happy_purchase_flow():
    sim, seats = make_map()
    assert seats.hold("s0", "session-1")
    assert seats.purchase("s0", "session-1", "alice")
    assert seats.state_of("s0") is SeatState.PURCHASED
    seats.check_invariant()


def test_hold_unavailable_seat_fails():
    sim, seats = make_map()
    seats.hold("s0", "session-1")
    assert not seats.hold("s0", "session-2")


def test_purchase_requires_holding_session():
    sim, seats = make_map()
    seats.hold("s0", "session-1")
    assert not seats.purchase("s0", "session-2", "mallory")
    assert seats.state_of("s0") is SeatState.PENDING


def test_pending_expires_after_timeout():
    sim, seats = make_map(pending_timeout=60.0)
    seats.hold("s0", "session-1")
    sim.run(until=59.0)
    assert seats.state_of("s0") is SeatState.PENDING
    sim.run(until=61.0)
    assert seats.state_of("s0") is SeatState.AVAILABLE
    assert seats.expired_holds == 1


def test_purchase_before_timeout_sticks():
    sim, seats = make_map(pending_timeout=60.0)
    seats.hold("s0", "session-1")
    seats.purchase("s0", "session-1", "alice")
    sim.run()  # stale timer fires, must be ignored (generation guard)
    assert seats.state_of("s0") is SeatState.PURCHASED
    assert seats.expired_holds == 0


def test_rehold_after_expiry_gets_fresh_window():
    sim, seats = make_map(pending_timeout=60.0)
    seats.hold("s0", "early")
    sim.run(until=61.0)
    assert seats.hold("s0", "late")
    sim.run(until=100.0)
    assert seats.state_of("s0") is SeatState.PENDING  # late's window ends at 121
    sim.run(until=122.0)
    assert seats.state_of("s0") is SeatState.AVAILABLE
    assert seats.expired_holds == 2


def test_no_timeout_variant_lets_hoarders_freeze_inventory():
    """pending_timeout=None is the §7.3 exploit: scalpers hold all seats
    at zero cost, forever."""
    sim, seats = make_map(pending_timeout=None)
    for seat_id in list(seats.seats):
        seats.hold(seat_id, "scalper")
    sim.run(until=1_000_000.0)
    assert seats.available_seats() == []
    assert seats.counts()["pending"] == 4


def test_counts():
    sim, seats = make_map()
    seats.hold("s0", "x")
    seats.hold("s1", "y")
    seats.purchase("s1", "y", "bob")
    assert seats.counts() == {"available": 2, "pending": 1, "purchased": 1}


def test_unknown_seat_rejected():
    sim, seats = make_map()
    with pytest.raises(SimulationError):
        seats.hold("ghost", "s")
