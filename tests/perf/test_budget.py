"""Perf smoke: throughput floors and allocation budgets for the kernel.

The wall-clock floors are marked ``slow`` — they run real (reduced-scale)
workloads, and are deliberately an order of magnitude below what the
optimized kernel does on a quiet machine: they exist to catch "someone
put an O(n) scan or an eager format back on the hot path", not to measure
the hardware. The allocation budgets are tighter because tracemalloc
numbers are deterministic for a deterministic workload.

The request-path gates at the bottom count instead of timing — function
calls per plain RPC, kernel steps per RPC, bytes held per blocked
process — so they are machine-independent and run unmarked.
"""

import sys
import tracemalloc

import pytest

from repro.net import Endpoint, Network
from repro.perf.workloads import WORKLOADS, sched_churn
from repro.sim import Simulator, Timeout
from repro.sim.trace import TraceRecord

slow = pytest.mark.slow

# events/sec floors, ~10x below measured rates on one shared CPU core
# (sched_churn measured ~2.5M ev/s after the fast-lane kernel landed).
_FLOORS = {
    "sched_churn": 250_000,
    "rpc_ping": 10_000,
    "tandem_cadence": 8_000,
}

# Scales chosen so each timed check stays around a second even at floor.
_SCALES = {
    "sched_churn": 100_000,
    "rpc_ping": 1_000,
    "tandem_cadence": 200,
}


@slow
@pytest.mark.parametrize("name", sorted(_FLOORS))
def test_events_per_sec_floor(name):
    import time

    workload = WORKLOADS[name]
    scale = _SCALES[name]
    workload.fn(scale)  # warm-up: imports, first-call caches
    start = time.perf_counter()
    run = workload.fn(scale)
    wall = time.perf_counter() - start
    rate = run.events / wall
    assert rate >= _FLOORS[name], (
        f"{name}: {rate:,.0f} ev/s under floor {_FLOORS[name]:,} "
        f"({run.events} events in {wall:.3f}s)"
    )


@slow
def test_scheduler_allocates_no_objects_per_event():
    """The kernel itself must not allocate tracked objects per executed
    event beyond the scheduled tuples — run a churn workload under
    tracemalloc and bound peak bytes per event."""
    tracemalloc.start()
    run = sched_churn(20_000)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_event = peak / run.events
    # Tuples in the heap/lane plus transient frame objects; a regression
    # to unslotted records or eager formatting blows well past this.
    assert per_event < 200, f"{per_event:.0f} peak bytes/event"


@slow
def test_trace_record_is_slotted_and_small():
    record = TraceRecord(1.0, "actor", "kind", {"k": 1})
    assert not hasattr(record, "__dict__")
    tracemalloc.start()
    records = [TraceRecord(float(i), "a", "k", {"i": i}) for i in range(1000)]
    size, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_record = size / len(records)
    assert per_record < 400, f"{per_record:.0f} bytes/record"


@slow
def test_bounded_trace_memory_is_flat():
    """With a capacity bound, emitting 10x capacity must not grow the
    trace's footprint past the bound's worth of records."""
    sim = Simulator(trace_capacity=1_000)
    for i in range(1_000):
        sim.trace.emit("a", "tick", i=i)
    tracemalloc.start()
    for i in range(10_000):
        sim.trace.emit("a", "tick", i=i)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(sim.trace.records) == 1_000
    assert sim.trace.dropped == 10_000
    # Steady-state churn: each emit allocates one record and frees one,
    # so peak tracked growth stays near one capacity's worth of payload
    # ints — nowhere near the ~1.5 MB that 10k retained records would be.
    assert peak < 192 * 1024, f"peak {peak} bytes while at capacity"


# ----------------------------------------------------------------------
# Request-path gates: counts, not clocks.

_PINGS = 2_000
#: Python + C function calls one plain RPC may cost. The allocation-free
#: wait protocol with one event per call attempt measures 102 (CPython
#: 3.11); the closure-based kernel it replaced measured 183.
_CALLS_PER_RPC = 120


def test_plain_rpc_costs_four_steps_and_a_bounded_number_of_calls():
    sim = Simulator(seed=1)
    net = Network(sim)
    server = Endpoint(net, "server")
    server.register("PING", lambda _ep, msg: {"echo": msg.payload["n"]})
    server.start()
    client = Endpoint(net, "client")
    client.start()
    echoes = []

    def pinger():
        for n in range(_PINGS):
            reply = yield from client.call("server", "PING", {"n": n})
            echoes.append(reply["echo"])

    sim.spawn(pinger())
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    assert echoes == list(range(_PINGS))
    # Per RPC: request delivery, handler start, reply delivery, and the
    # attempt's (by then stale) timer. The tail is the three process
    # starts: two serve loops and the pinger.
    assert sim.steps == 4 * _PINGS + 3
    assert calls / _PINGS <= _CALLS_PER_RPC, f"{calls / _PINGS:.1f} calls per RPC"


def test_blocked_process_holds_only_its_scheduled_wakeup():
    """20 000 processes asleep in ``Timeout`` at once: what the kernel
    holds per sleeper is the heap entry and its argument tuple, nothing
    per-wait of its own (133 bytes measured; a wait record plus two
    closures per yield was 453)."""
    sleepers = 20_000
    sim = Simulator()
    nap = Timeout(1.0)  # shared, so the body itself allocates nothing

    def sleeper():
        yield nap

    for _ in range(sleepers):
        sim.spawn(sleeper())
    tracemalloc.start()
    sim.run()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert sim.steps == 2 * sleepers
    assert peak / sleepers < 200, f"{peak / sleepers:.0f} peak bytes per sleeper"
