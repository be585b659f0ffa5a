"""Kernel event-loop behaviour: ordering, clock, run bounds."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(7.5, seen.append, "x")
    sim.run()
    assert seen == ["x"]
    assert sim.now == 7.5


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_inclusive_of_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "boundary")
    sim.run(until=5.0)
    assert seen == ["boundary"]


def test_max_steps_bound():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i), count.append, i)
    sim.run(max_steps=4)
    assert count == [0, 1, 2, 3]


def test_nested_schedule_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(2.0, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 3.0)]


def test_timeout_event_self_triggers():
    sim = Simulator()
    event = sim.timeout_event(4.0)
    sim.run()
    assert event.triggered and event.value is None


def test_run_process_returns_value():
    sim = Simulator()

    def worker():
        yield Timeout(2.0)
        return 42

    assert sim.run_process(worker()) == 42
    assert sim.now == 2.0


def test_run_process_raises_on_deadlock():
    sim = Simulator()

    def stuck():
        yield sim.event("never")

    with pytest.raises(SimulationError):
        sim.run_process(stuck())


def test_pending_count():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_count == 2
