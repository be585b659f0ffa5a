"""Property-based contracts for the kernel's scheduling order and clock.

These pin the invariants the fast-lane/batched-drain kernel must keep:
global (time, seq) execution order regardless of which internal structure
(heap or zero-delay lane) an entry rides, and the documented ``run``
clock semantics for every combination of ``until`` and ``max_steps``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator

# Delays on a coarse grid so ties are common — ties are where the
# lane/heap ordering contract actually bites.
_delays = st.floats(min_value=0.0, max_value=5.0, allow_nan=False).map(
    lambda d: round(d * 4) / 4
)


@given(st.lists(_delays, max_size=40))
@settings(max_examples=80)
def test_execution_is_total_time_seq_order(delays):
    """Entries run in (time, insertion-seq) order, even when zero delays
    (the lane) interleave with positive delays (the heap)."""
    sim = Simulator()
    executed = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, executed.append, (delay, index))
    sim.run()
    assert executed == sorted((d, i) for i, d in enumerate(delays))


@given(st.lists(st.integers(0, 99), min_size=1, max_size=30))
@settings(max_examples=50)
def test_zero_delay_cascade_is_fifo(tags):
    """A callback scheduling zero-delay work sees it run FIFO, after all
    previously scheduled same-time work."""
    sim = Simulator()
    order = []

    def tick():
        order.append("tick")
        for tag in tags:
            sim.schedule(0.0, order.append, tag)

    sim.schedule(1.0, tick)
    sim.schedule(1.0, order.append, "tie")
    sim.run()
    assert order == ["tick", "tie"] + list(tags)
    assert sim.now == 1.0


@given(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
)
@settings(max_examples=50)
def test_schedule_at_past_raises(advance, backstep):
    sim = Simulator()
    sim.schedule(advance, lambda: None)
    sim.run()
    assert sim.now == advance
    with pytest.raises(SimulationError):
        sim.schedule_at(sim.now - backstep, lambda: None)


@given(
    st.lists(_delays, max_size=30),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=60)
def test_run_until_never_exceeds_until(delays, until):
    """No callback observes now > until, and the clock lands exactly on
    until when the run bound (not exhaustion beyond it) is what stopped
    execution."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run(until=until)
    assert all(t <= until for t in observed)
    assert sim.now == until
    assert len(observed) == sum(1 for d in delays if d <= until)


@given(
    st.lists(_delays, min_size=1, max_size=30),
    st.integers(min_value=0, max_value=35),
)
@settings(max_examples=60)
def test_max_steps_is_a_pure_prefix(delays, max_steps):
    """Running with max_steps executes exactly the first min(n, max_steps)
    callbacks of the full (time, seq) order, and a follow-up run finishes
    the rest in order — interruption never reorders."""
    sim = Simulator()
    executed = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, executed.append, (delay, index))
    full_order = sorted((d, i) for i, d in enumerate(delays))
    sim.run(max_steps=max_steps)
    assert executed == full_order[:max_steps]
    sim.run()
    assert executed == full_order


# ----------------------------------------------------------------------
# Cancellation against a sorted-list model. A program is a list of
# operations: schedule a batch at one delay (some of whose callbacks, when
# they run, cancel the newest cancellable entry), cancel a slice of the
# cancellable entries, or run with ``max_steps`` or ``until``. Batches of
# up to 120 and slices of every stride cross the compaction threshold
# (more than 64 tombstones, and more than half the heap) often.

_programs = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, st.integers(1, 120), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 8), st.integers(1, 3)),
        st.tuples(st.just("steps"), st.integers(0, 80)),
        st.tuples(st.just("until"), _delays),
    ),
    max_size=25,
)


def _run_against_model(program):
    """Run ``program`` on a Simulator and on the model side by side,
    comparing after every operation; returns whether the heap was
    compacted at some point."""
    sim = Simulator()
    ran = []
    handles = {}  # seq -> handle, for entries the simulator may cancel
    model = []  # (when, seq, cancels, cancellable) still due to run
    model_ran = []
    model_now = 0.0
    compacted = False

    def fire(seq, cancels):
        ran.append(seq)
        handles.pop(seq, None)
        if cancels and handles:
            sim.cancel(handles.pop(max(handles)))

    def model_cancel(seq):
        model[:] = [entry for entry in model if entry[1] != seq]

    def model_run(limit, until):
        nonlocal model_now
        for _ in range(limit):
            if not model:
                break
            entry = min(model)
            if until is not None and entry[0] > until:
                break
            model.remove(entry)
            model_now = entry[0]
            model_ran.append(entry[1])
            if entry[2]:
                live = [e[1] for e in model if e[3]]
                if live:
                    model_cancel(max(live))
        if until is not None and not any(e[0] <= until for e in model):
            model_now = max(model_now, until)

    seq = 0
    for op in program:
        if op[0] == "schedule":
            _tag, delay, count, cancels = op
            for _ in range(count):
                handle = sim.schedule(delay, fire, seq, cancels)
                if handle is not None:
                    handles[seq] = handle
                model.append((model_now + delay, seq, cancels, delay > 0))
                seq += 1
        elif op[0] == "cancel":
            _tag, start, stride = op
            heap_size = len(sim._heap)
            for victim in sorted(handles)[start::stride]:
                sim.cancel(handles.pop(victim))
                model_cancel(victim)
            compacted |= len(sim._heap) < heap_size
        elif op[0] == "steps":
            sim.run(max_steps=op[1])
            model_run(op[1], None)
        else:
            until = sim.now + op[1]
            sim.run(until=until)
            model_run(len(model), until)
        assert ran == model_ran
        assert sim.now == model_now
        assert sim.pending_count == len(model)
        assert sim.steps == len(ran)
    sim.run()
    model_run(len(model), None)
    assert ran == model_ran
    assert sim.pending_count == 0
    return compacted


@given(_programs)
@settings(max_examples=150, deadline=None)
def test_schedule_cancel_and_run_match_a_sorted_list_model(program):
    _run_against_model(program)


def test_the_model_program_crosses_the_compaction_threshold():
    assert _run_against_model([
        ("schedule", 1.0, 60, False),
        ("schedule", 0.0, 5, False),
        ("schedule", 2.5, 60, True),
        ("steps", 3),
        ("cancel", 2, 1),
        ("schedule", 0.25, 10, True),
        ("until", 1.0),
    ])
