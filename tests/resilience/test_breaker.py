"""CircuitBreaker: the state machine, unit- and property-tested.

The two properties the ISSUE pins down:

- the breaker **never half-opens early** — no call passes while open
  until ``recovery_time`` of simulated time has elapsed;
- it **always recloses after success probes** — from any reachable
  state, waiting out the cool-off and answering every probe with a
  success returns it to closed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import BreakerConfig, BreakerState, CircuitBreaker
from repro.resilience.breaker import BreakerBoard


class _Clock:
    """The slice of Simulator a breaker needs: a clock, counters, traces."""

    def __init__(self) -> None:
        self.now = 0.0
        self.counters = {}
        self.events = []
        self.metrics = self
        self.trace = self

    def inc(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def emit(self, *args, **kwargs):
        self.events.append((args, kwargs))


def make_breaker(failure_threshold=5, success_threshold=1, **kwargs):
    """A breaker whose config shadows the two threshold constants."""
    clock = _Clock()
    config = type("Config", (BreakerConfig,), {
        "failure_threshold": failure_threshold,
        "success_threshold": success_threshold,
    })(**kwargs)
    return clock, CircuitBreaker(clock, "client", "server", config)


# ----------------------------------------------------------------------
# Unit tests: the documented lifecycle


def test_trips_after_consecutive_failures_only():
    clock, breaker = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()          # success resets the streak
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert clock.counters["resilience.breaker.client.open"] == 1


def test_open_short_circuits_until_cooloff():
    clock, breaker = make_breaker(failure_threshold=1, recovery_time=2.0)
    breaker.record_failure()
    assert not breaker.allow()
    clock.now = 1.999
    assert not breaker.allow()
    assert clock.counters["resilience.breaker.client.short_circuits"] == 2
    clock.now = 2.0
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN


def test_half_open_bounds_concurrent_probes():
    clock, breaker = make_breaker(failure_threshold=1, half_open_probes=2)
    breaker.record_failure()
    clock.now = 10.0
    assert breaker.allow() and breaker.allow()
    assert not breaker.allow()        # both probe slots taken
    breaker.record_success()          # one probe lands, frees its slot
    assert breaker.allow()


def test_probe_success_recloses_probe_failure_reopens():
    clock, breaker = make_breaker(
        failure_threshold=1, recovery_time=1.0, success_threshold=2,
    )
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.HALF_OPEN   # needs 2 successes
    assert breaker.allow()
    breaker.record_failure()                          # probe failed: re-open
    assert breaker.state is BreakerState.OPEN
    assert breaker.opened_at == 1.0                   # cool-off clock restarted
    clock.now = 2.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED


def test_stale_success_while_open_is_ignored():
    clock, breaker = make_breaker(failure_threshold=1)
    breaker.record_failure()
    breaker.record_success()          # late reply from before the trip
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()


def test_board_is_per_destination():
    clock = _Clock()
    board = BreakerBoard(clock, "client", BreakerConfig())
    for _ in range(BreakerConfig.failure_threshold):
        board.for_dst("a").record_failure()
    assert board.for_dst("a").state is BreakerState.OPEN
    assert board.for_dst("b").state is BreakerState.CLOSED
    assert board.states() == {"a": BreakerState.OPEN, "b": BreakerState.CLOSED}


# ----------------------------------------------------------------------
# Property tests: arbitrary interleavings of calls, outcomes, and time

CONFIG = dict(
    failure_threshold=3, recovery_time=1.0,
    half_open_probes=2, success_threshold=2,
)

_ops = st.lists(
    st.one_of(
        st.sampled_from(["allow", "success", "failure"]),
        st.floats(min_value=0.05, max_value=1.5),   # advance the clock
    ),
    max_size=80,
)


def _drive(breaker, clock, op):
    if isinstance(op, float):
        clock.now += op
    elif op == "allow":
        breaker.allow()
    elif op == "success":
        breaker.record_success()
    else:
        breaker.record_failure()


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_never_half_opens_early(ops):
    clock, breaker = make_breaker(**CONFIG)
    for op in ops:
        before, opened_at = breaker.state, breaker.opened_at
        _drive(breaker, clock, op)
        if before is BreakerState.OPEN and breaker.state is not BreakerState.OPEN:
            # The only way out of OPEN is the cool-off elapsing. Sum-form
            # on both sides: (now - opened_at) can round below a cool-off
            # that did fully elapse.
            assert breaker.state is BreakerState.HALF_OPEN
            assert clock.now >= opened_at + CONFIG["recovery_time"]
        if (
            op == "allow"
            and before is BreakerState.OPEN
            and clock.now < opened_at + CONFIG["recovery_time"]
        ):
            assert breaker.state is BreakerState.OPEN
        assert 0 <= breaker.probes_inflight <= CONFIG["half_open_probes"]


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_always_recloses_after_success_probes(ops):
    clock, breaker = make_breaker(**CONFIG)
    for op in ops:
        _drive(breaker, clock, op)
    # From any reachable state: wait out the cool-off, answer every
    # probe with a success, and the breaker must return to CLOSED.
    clock.now += CONFIG["recovery_time"]
    for _ in range(CONFIG["success_threshold"] + CONFIG["half_open_probes"] + 1):
        if breaker.state is BreakerState.CLOSED:
            break
        if breaker.allow():
            breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()
