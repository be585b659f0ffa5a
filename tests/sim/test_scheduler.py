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


# ----------------------------------------------------------------------
# Cancellation


def test_a_cancelled_entry_never_runs_costs_no_step_and_leaves_the_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "kept")
    sim.cancel(sim.schedule(5.0, seen.append, "cancelled"))
    assert sim.run() == 1.0
    assert seen == ["kept"]
    assert sim.steps == 1
    assert sim.pending_count == 0


def test_a_cancelled_entry_is_invisible_to_bounded_runs():
    sim = Simulator()
    seen = []
    first = sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.cancel(first)
    sim.run(max_steps=1)
    assert (seen, sim.now, sim.steps) == (["b"], 2.0, 1)
    # A tombstone at or before `until` does not hold the clock back.
    sim.cancel(sim.schedule(1.0, seen.append, "c"))
    sim.run(until=3.5)
    assert (seen, sim.now, sim.steps) == (["b"], 3.5, 1)
    # Nor when the step bound is what stopped the run.
    sim.schedule(0.5, seen.append, "d")
    sim.cancel(sim.schedule(1.0, seen.append, "e"))
    sim.run(until=5.0, max_steps=1)
    assert (seen, sim.now, sim.pending_count) == (["b", "d"], 5.0, 0)


def test_cancel_drops_the_callback_and_its_arguments_at_once():
    sim = Simulator()
    payload = [object()]
    handle = sim.schedule(1.0, payload.append, payload)
    sim.cancel(handle)
    assert handle[2:] == [None, None]


def test_a_callback_can_cancel_a_same_time_entry_still_waiting():
    sim = Simulator()
    seen = []
    later = []

    def first():
        seen.append("first")
        sim.cancel(later[0])

    sim.schedule(1.0, first)
    later.append(sim.schedule(1.0, seen.append, "second"))
    sim.run()
    assert seen == ["first"]
    assert sim.steps == 1


def test_cancelling_twice_raises():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.cancel(handle)
    with pytest.raises(SimulationError, match="twice"):
        sim.cancel(handle)


def test_cancelling_after_the_callback_ran_raises():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="after it ran"):
        sim.cancel(handle)  # ran at the current time
    sim.run()
    with pytest.raises(SimulationError, match="after it ran"):
        sim.cancel(handle)  # ran in the past


def test_a_callback_cannot_cancel_itself():
    sim = Simulator()
    handle = []
    handle.append(sim.schedule(1.0, lambda: sim.cancel(handle[0])))
    with pytest.raises(SimulationError, match="after it ran"):
        sim.run()


def test_lane_callbacks_have_no_handle():
    sim = Simulator()
    assert sim.schedule(0.0, lambda: None) is None
    assert sim.schedule_at(sim.now, lambda: None) is None
    assert sim.schedule_at(1.0, lambda: None) is not None


def test_pending_count_counts_live_callbacks_only():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    sim.schedule(0.0, lambda: None)
    for handle in handles[:3]:
        sim.cancel(handle)
    assert sim.pending_count == 3
    sim.run(max_steps=2)  # the lane callback and the entry at 4.0
    assert sim.pending_count == 1


def test_compaction_keeps_the_survivors_order():
    sim = Simulator()
    seen = []
    handles = [sim.schedule(1.0 + (i % 7), seen.append, i) for i in range(200)]
    for i, handle in enumerate(handles):
        if i % 5:
            sim.cancel(handle)
    assert len(sim._heap) < 200  # tombstones passed the threshold
    assert sim.pending_count == 40
    sim.run()
    assert seen == sorted(range(0, 200, 5), key=lambda i: (i % 7, i))


def test_compaction_inside_a_run_keeps_the_run_going():
    """A callback that cancels enough to compact the heap, then schedules
    more: the running loop sees exactly the survivors and the new entry."""
    sim = Simulator()
    seen = []
    handles = [sim.schedule(2.0 + i, seen.append, i) for i in range(100)]

    def purge():
        for handle in handles[1:]:
            sim.cancel(handle)
        sim.schedule(0.5, seen.append, "new")

    sim.schedule(1.0, purge)
    sim.run()
    assert seen == ["new", 0]
    assert (sim.now, sim.steps, sim.pending_count) == (2.0, 3, 0)
