"""Process semantics: effects, completion, failure, interrupts."""

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import AllOf, Simulator, Timeout


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Timeout(5.0)
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.0, 5.0]


def test_timeout_resumes_with_value():
    sim = Simulator()

    def proc():
        got = yield Timeout(1.0)
        return got

    assert sim.run_process(proc()) is None


def test_wait_on_event_gets_value():
    sim = Simulator()
    event = sim.event("e")

    def trigger_later():
        yield Timeout(2.0)
        event.trigger(99)

    def waiter():
        value = yield event
        return value

    sim.spawn(trigger_later())
    assert sim.run_process(waiter()) == 99


def test_wait_on_already_triggered_event():
    sim = Simulator()
    event = sim.event("e").trigger("ready")

    def waiter():
        value = yield event
        return value

    assert sim.run_process(waiter()) == "ready"


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    event = sim.event("e")

    def fail_later():
        yield Timeout(1.0)
        event.fail(ValueError("boom"))

    def waiter():
        try:
            yield event
        except ValueError as exc:
            return f"caught {exc}"

    sim.spawn(fail_later())
    assert sim.run_process(waiter()) == "caught boom"


def test_wait_on_process_returns_its_value():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return "child-result"

    def parent():
        proc = sim.spawn(child())
        result = yield proc
        return result

    assert sim.run_process(parent()) == "child-result"


def test_process_exception_fails_done_event():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("died")

    proc = sim.spawn(bad())
    sim.run()
    assert proc.done.triggered
    assert isinstance(proc.done.exception, RuntimeError)


def test_child_failure_propagates_to_waiting_parent():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.spawn(child())
        except RuntimeError:
            return "saw failure"

    assert sim.run_process(parent()) == "saw failure"


def test_interrupt_throws_into_process():
    sim = Simulator()

    def victim():
        try:
            yield Timeout(100.0)
        except InterruptError as exc:
            return ("interrupted", exc.cause, sim.now)

    proc = sim.spawn(victim())
    sim.schedule(5.0, proc.interrupt, "crash")
    sim.run()
    assert proc.done.value == ("interrupted", "crash", 5.0)


def test_interrupt_cancels_stale_timeout():
    """After an interrupt, the old timeout must not resume the process."""
    sim = Simulator()
    resumed = []

    def victim():
        try:
            yield Timeout(10.0)
            resumed.append("timeout fired")
        except InterruptError:
            yield Timeout(100.0)
            resumed.append("slept after interrupt")

    proc = sim.spawn(victim())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert resumed == ["slept after interrupt"]
    assert proc.done.triggered


def test_interrupt_before_the_first_step_runs_nothing():
    """A process interrupted in the step that spawned it dies of the
    interrupt without running any of its body (fail-fast: a crashed node
    draws no random number and sends nothing)."""
    sim = Simulator()
    ran = []

    def victim():
        ran.append("first segment")
        yield Timeout(1.0)

    proc = sim.spawn(victim())
    proc.interrupt("crash")
    sim.run()
    assert ran == []
    assert isinstance(proc.done.exception, InterruptError)
    assert proc.done.exception.cause == "crash"


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield Timeout(1.0)

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_allof_waits_for_all():
    sim = Simulator()
    first = sim.timeout_event(1.0)
    second = sim.timeout_event(5.0)

    def gatherer():
        results = yield AllOf([first, second])
        return results

    results = sim.run_process(gatherer())
    assert results == {first: None, second: None}
    assert sim.now == 5.0


def test_allof_empty_resumes_immediately():
    sim = Simulator()

    def proc():
        results = yield AllOf([])
        return results

    assert sim.run_process(proc()) == {}


def test_yield_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "not an effect"

    proc = sim.spawn(bad())
    sim.run()
    assert isinstance(proc.done.exception, SimulationError)


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_alive_flag():
    sim = Simulator()

    def proc():
        yield Timeout(5.0)

    p = sim.spawn(proc())
    assert p.alive
    sim.run()
    assert not p.alive
