"""Trace log filtering and capacity."""

from repro.sim import Simulator


def test_emit_records_time_and_payload():
    sim = Simulator()
    sim.schedule(2.0, sim.trace.emit, "node-1", "write")
    sim.run()
    records = sim.trace.find(kind="write")
    assert len(records) == 1
    assert records[0].time == 2.0
    assert records[0].actor == "node-1"


def test_filters():
    sim = Simulator()
    sim.trace.emit("a", "x", n=1)
    sim.trace.emit("b", "x", n=2)
    sim.trace.emit("a", "y", n=3)
    assert sim.trace.count(kind="x") == 2
    assert sim.trace.count(actor="a") == 2
    assert len(sim.trace.find(kind="x", actor="a")) == 1
    heavy = sim.trace.find(predicate=lambda r: r.payload.get("n", 0) > 1)
    assert [r.payload["n"] for r in heavy] == [2, 3]


def test_disabled_trace_records_nothing():
    sim = Simulator()
    sim.trace.enabled = False
    sim.trace.emit("a", "x")
    assert sim.trace.count() == 0


def test_capacity_bounds_records():
    sim = Simulator(trace_capacity=3)
    for i in range(10):
        sim.trace.emit("a", "tick", i=i)
    assert sim.trace.count() == 3
    assert [r.payload["i"] for r in sim.trace.find()] == [7, 8, 9]


def test_eviction_is_counted_not_silent():
    sim = Simulator(trace_capacity=3)
    for i in range(10):
        sim.trace.emit("a", "tick", i=i)
    assert sim.trace.dropped == 7
    assert sim.trace.count() == 3


def test_dropped_stays_zero_within_capacity():
    sim = Simulator(trace_capacity=5)
    for i in range(5):
        sim.trace.emit("a", "tick", i=i)
    assert sim.trace.dropped == 0

    unbounded = Simulator(trace_capacity=None)
    for i in range(100):
        unbounded.trace.emit("a", "tick", i=i)
    assert unbounded.trace.dropped == 0


def test_disabled_emits_do_not_count_as_dropped():
    sim = Simulator(trace_capacity=2)
    sim.trace.enabled = False
    for i in range(10):
        sim.trace.emit("a", "tick", i=i)
    assert sim.trace.dropped == 0


def test_tail_returns_most_recent_records():
    sim = Simulator()
    for i in range(5):
        sim.trace.emit("a", "tick", i=i)
    assert [r.payload["i"] for r in sim.trace.tail(2)] == [3, 4]
    assert len(sim.trace.tail(100)) == 5
    assert sim.trace.tail(0) == []
