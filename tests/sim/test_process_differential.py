"""Differential test: the kernel's ``Process`` against the frozen
closure-based reference (``reference_process.py``).

A *program* is plain data: a pool of shared events (some settled before
anything runs), a few processes that each walk a list of ops, callbacks
hooked onto events, and interrupts scheduled from outside. It is run
once under each ``Process`` class; both runs must log the same
``(sim.now, process, op, outcome)`` rows and execute the same number of
kernel steps.

Interrupts are only issued to a process that is blocked in a wait —
see the reference's docstring for why nothing else is comparable.
"""

from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import InterruptError, SimulationError
from repro.sim import AllOf, AnyOf, Simulator, Timeout

from tests.sim.reference_process import Process as ReferenceProcess


class ReferenceSimulator(Simulator):
    """The production scheduler driving the reference ``Process``."""

    def spawn(self, gen, name=None):
        if name is None:
            name = f"proc-{next(self._proc_seq)}"
        return ReferenceProcess(self, gen, name)


KERNELS = [Simulator, ReferenceSimulator]


class Machine:
    """Interprets one program on one simulator and keeps the log."""

    def __init__(self, sim: Simulator, program: Dict[str, Any]) -> None:
        self.sim = sim
        self.log: List[Tuple[Any, ...]] = []
        self.events = [sim.event(f"e{i}") for i in range(len(program["events"]))]
        for event, state in zip(self.events, program["events"]):
            if state == "ok":
                event.trigger(f"{event.name}:early")
            elif state == "failed":
                event.fail(ValueError(f"{event.name}:early"))
        self.blocked = [False] * len(program["procs"])
        self.procs: List[Any] = []
        for event_index, victim in program["hooks"]:
            self.hook(event_index, victim)
        for pid, (ops, catches) in enumerate(program["procs"]):
            self.procs.append(sim.spawn(self.body(pid, ops, catches), name=f"p{pid}"))
        for when, victim in program["interrupts"]:
            sim.schedule(when, self.interrupt, victim, f"outside@{when}")

    def interrupt(self, victim: int, cause: str) -> None:
        if self.blocked[victim]:
            self.blocked[victim] = False
            self.procs[victim].interrupt(cause)

    def hook(self, event_index: int, victim: int) -> None:
        event = self.events[event_index]
        event.add_callback(lambda _e: self.interrupt(victim, f"hook:{event.name}"))

    def member(self, spec: Tuple[str, int]) -> Any:
        kind, index = spec
        if kind == "event":
            return self.events[index]
        if kind == "proc":
            return self.procs[index % len(self.procs)]
        return f"not-waitable-{index}"

    def effect(self, op: Tuple[Any, ...]) -> Tuple[Optional[Any], bool]:
        """The effect to yield for ``op`` (None: nothing to wait for) and
        whether the process is then really blocked in a wait."""
        kind = op[0]
        if kind == "timeout":
            return Timeout(op[1], value=f"slept {op[1]}"), True
        if kind == "wait":
            return self.events[op[1]], True
        if kind == "join":
            return self.procs[op[1] % len(self.procs)], True
        if kind in ("anyof", "allof"):
            members = [self.member(spec) for spec in op[1]]
            # A non-waitable member is reported by a queued throw, not a wait.
            waits = all(spec[0] != "bad" for spec in op[1])
            return (AnyOf if kind == "anyof" else AllOf)(members), waits
        if kind == "garbage":
            return "not an effect", False
        event = self.events[op[1]] if kind in ("trigger", "fail") else None
        if kind == "trigger" and not event.triggered:
            event.trigger(f"{event.name}:by-op")
        elif kind == "fail" and not event.triggered:
            event.fail(ValueError(f"{event.name}:by-op"))
        elif kind == "interrupt":
            self.interrupt(op[1] % len(self.procs), "by-op")
        elif kind == "hook":
            self.hook(op[1], op[2] % len(self.procs))
        return None, False

    def body(self, pid: int, ops: List[Tuple[Any, ...]], catches: bool):
        for index, op in enumerate(ops):
            try:
                effect, waits = self.effect(op)
                got = None
                if effect is not None:
                    self.blocked[pid] = waits
                    got = yield effect
                    self.blocked[pid] = False
                if isinstance(got, dict):
                    got = [(event.name, value) for event, value in got.items()]
                self.log.append((self.sim.now, pid, index, "ok", got))
            except (InterruptError, SimulationError, ValueError) as exc:
                self.blocked[pid] = False
                detail = exc.cause if isinstance(exc, InterruptError) else str(exc)
                self.log.append((self.sim.now, pid, index, type(exc).__name__, detail))
                if not catches:
                    raise
        return f"p{pid} finished"


def run_under(kernel, program: Dict[str, Any]):
    sim = kernel(seed=0)
    machine = Machine(sim, program)
    sim.run()
    fates = [
        (proc.alive, None if proc.alive else repr(proc.done.exception or proc.done.value))
        for proc in machine.procs
    ]
    return machine.log, fates, sim.steps, sim.now


# ----------------------------------------------------------------------
# Generated programs

# Few events and processes, so that waiters pile up on the same event.
N_EVENTS = 3
N_PROCS = 4

# Repeated alternatives below weight the draw towards plain waits, which
# is where processes meet each other.
_times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_event_ix = st.integers(0, N_EVENTS - 1)
_proc_ix = st.integers(0, N_PROCS - 1)
_member = st.one_of(
    st.tuples(st.just("event"), _event_ix),
    st.tuples(st.just("event"), _event_ix),
    st.tuples(st.just("proc"), _proc_ix),
    st.tuples(st.just("bad"), st.just(0)),
)
_members = st.lists(_member, min_size=0, max_size=4)
_op = st.one_of(
    st.tuples(st.just("timeout"), _times),
    st.tuples(st.just("timeout"), _times),
    st.tuples(st.just("wait"), _event_ix),
    st.tuples(st.just("wait"), _event_ix),
    st.tuples(st.just("wait"), _event_ix),
    st.tuples(st.just("join"), _proc_ix),
    st.tuples(st.just("anyof"), _members),
    st.tuples(st.just("allof"), _members),
    st.tuples(st.just("garbage")),
    st.tuples(st.just("trigger"), _event_ix),
    st.tuples(st.just("fail"), _event_ix),
    st.tuples(st.just("interrupt"), _proc_ix),
    st.tuples(st.just("hook"), _event_ix, _proc_ix),
)
_proc = st.tuples(st.lists(_op, min_size=1, max_size=8), st.booleans())
_program = st.fixed_dictionaries({
    "events": st.lists(
        st.sampled_from(["pending", "pending", "pending", "ok", "failed"]),
        min_size=N_EVENTS, max_size=N_EVENTS,
    ),
    "procs": st.lists(_proc, min_size=1, max_size=N_PROCS),
    "hooks": st.lists(st.tuples(_event_ix, _proc_ix), max_size=2),
    "interrupts": st.lists(st.tuples(_times, _proc_ix), max_size=4),
}).map(lambda program: {
    **program,
    # Victims are drawn from the full range; fold them onto live pids.
    "hooks": [(e, v % len(program["procs"])) for e, v in program["hooks"]],
    "interrupts": [(t, v % len(program["procs"])) for t, v in program["interrupts"]],
})


@settings(max_examples=400, deadline=None)
@given(_program)
@example({
    # Too rare to be drawn: p0 re-waits on e0 after a caught interrupt
    # while p1 queued behind its first wait; p2 then settles e0.
    "events": ["pending", "pending", "pending"],
    "procs": [
        ([("wait", 0), ("wait", 0)], True),
        ([("wait", 0)], True),
        ([("timeout", 2.0), ("trigger", 0)], True),
    ],
    "hooks": [],
    "interrupts": [(1.0, 0)],
})
def test_generated_programs_resume_identically(program):
    assert run_under(Simulator, program) == run_under(ReferenceSimulator, program)


# ----------------------------------------------------------------------
# The three cases a wait-protocol rewrite can get wrong, pinned by hand.


@pytest.mark.parametrize("kernel", KERNELS)
def test_rewait_on_same_event_keeps_waiter_order(kernel):
    """p0 waits on e, is interrupted, catches, waits on e again — it must
    now be resumed *after* p1, which queued up in between."""
    sim = kernel()
    event = sim.event("e")
    order = []

    def patient(tag):
        try:
            yield event
        except InterruptError:
            order.append(f"{tag} interrupted")
            yield event
        order.append(f"{tag} resumed")

    def plain(tag):
        yield event
        order.append(f"{tag} resumed")

    first = sim.spawn(patient("p0"))
    sim.schedule(1.0, first.interrupt)
    sim.spawn(plain("p1"))
    sim.schedule(2.0, lambda: sim.spawn(plain("p2")))
    sim.schedule(3.0, event.trigger)
    sim.run()
    assert order == ["p0 interrupted", "p1 resumed", "p0 resumed", "p2 resumed"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_interrupt_from_a_callback_of_the_awaited_event(kernel):
    """A callback that runs earlier in the same settle interrupts the
    waiter: the waiter must see the interrupt, not the event's value."""
    sim = kernel()
    event = sim.event("e")
    seen = []

    def victim():
        try:
            seen.append(("value", (yield event)))
        except InterruptError as exc:
            seen.append(("interrupt", exc.cause, sim.now))
            seen.append(("then", (yield event)))  # settled by now: resumes at once

    holder = {}
    event.add_callback(lambda _e: holder["proc"].interrupt("from callback"))
    holder["proc"] = sim.spawn(victim())
    sim.schedule(2.0, event.trigger, "v")
    sim.run()
    assert seen == [("interrupt", "from callback", 2.0), ("then", "v")]
    assert not holder["proc"].alive


@pytest.mark.parametrize("kernel", KERNELS)
def test_stale_timeout_after_interrupt_then_new_timeout(kernel):
    """The wake-up of the abandoned Timeout(10) fires while the process
    sleeps in Timeout(100); it must be a no-op step, not an early wake."""
    sim = kernel()
    woke = []

    def sleeper():
        try:
            yield Timeout(10.0, value="first")
        except InterruptError:
            woke.append(("interrupt", sim.now))
            woke.append(((yield Timeout(100.0, value="second")), sim.now))

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert woke == [("interrupt", 1.0), ("second", 101.0)]
    # start, interrupt(), its throw, the stale wake-up, the real one
    assert sim.steps == 5
