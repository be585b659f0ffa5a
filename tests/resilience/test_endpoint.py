"""The resilience stack threaded through Endpoint.call/cast/_dispatch."""

import pytest

from repro.errors import (
    BreakerOpenError,
    DeadlineExceeded,
    ServerBusyError,
    TimeoutError_,
)
from repro.net import Endpoint, FixedLatency, LinkConfig, Network
from repro.resilience import AdmissionConfig, BreakerConfig, RetryPolicy
from repro.sim import Simulator, Timeout


def setup_pair(seed=0, **link_kwargs):
    link_kwargs.setdefault("latency", FixedLatency(0.01))
    sim = Simulator(seed=seed)
    net = Network(sim, default_link=LinkConfig(**link_kwargs))
    server = Endpoint(net, "server", dedup=True)
    client = Endpoint(net, "client")
    server.start()
    client.start()
    return sim, net, server, client


# ----------------------------------------------------------------------
# Policy-driven call: backoff timing, jitter determinism, deadlines


def test_fixed_backoff_timing_is_exact():
    sim, _net, _server, client = setup_pair(loss_probability=1.0)
    policy = RetryPolicy(max_attempts=3, timeout=0.2, base_delay=0.5)

    def run():
        try:
            yield from client.call("server", "x", policy=policy)
        except TimeoutError_:
            return sim.now

    # 0.2 (attempt 1) + 0.5 + 0.2 (attempt 2) + 0.5 + 0.2 (attempt 3)
    assert sim.run_process(run()) == pytest.approx(1.6)


def _jittered_give_up_time(seed):
    sim, _net, _server, client = setup_pair(seed=seed, loss_probability=1.0)
    policy = RetryPolicy(
        max_attempts=4, timeout=0.1,
        backoff="exponential", base_delay=0.5, jitter=0.5,
    )

    def run():
        try:
            yield from client.call("server", "x", policy=policy)
        except TimeoutError_:
            return sim.now

    return sim.run_process(run())


def test_jittered_schedule_is_seed_deterministic():
    assert _jittered_give_up_time(5) == _jittered_give_up_time(5)
    assert _jittered_give_up_time(5) != _jittered_give_up_time(6)


def test_deadline_bounds_the_whole_call():
    sim, _net, _server, client = setup_pair(loss_probability=1.0)
    policy = RetryPolicy(max_attempts=5, timeout=0.4, deadline=0.5)

    def run():
        try:
            yield from client.call("server", "x", policy=policy)
        except DeadlineExceeded:
            return sim.now

    # Attempt 1 burns 0.4, attempt 2 gets the remaining 0.1, attempt 3
    # finds the budget empty — well before 5 x 0.4 of naive timers.
    assert sim.run_process(run()) == pytest.approx(0.5)


def test_backoff_that_outlives_the_deadline_fails_fast():
    sim, _net, _server, client = setup_pair(loss_probability=1.0)
    policy = RetryPolicy(max_attempts=3, timeout=0.2, base_delay=1.0, deadline=0.5)

    def run():
        try:
            yield from client.call("server", "x", policy=policy)
        except DeadlineExceeded:
            return sim.now

    # No point sleeping 1.0 into a 0.5 budget: give up at the first timeout.
    assert sim.run_process(run()) == pytest.approx(0.2)


def test_deadline_is_stamped_into_the_payload():
    sim, _net, server, client = setup_pair()
    seen = []

    @server.on("work")
    def work(_ep, msg):
        seen.append(msg.payload.get("deadline"))
        return {}

    def run():
        yield from client.call(
            "server", "work", policy=RetryPolicy(deadline=2.0)
        )

    sim.run_process(run())
    assert seen == [2.0]  # absolute sim time: now (0.0) + the 2.0 budget


def test_server_sheds_requests_that_arrive_expired():
    sim, _net, server, client = setup_pair(latency=FixedLatency(1.0))
    server.use_admission(AdmissionConfig(max_inflight=8))
    ran = []

    @server.on("work")
    def work(_ep, _msg):
        ran.append(1)
        return {}

    def run():
        try:
            yield from client.call(
                "server", "work",
                policy=RetryPolicy(max_attempts=1, timeout=0.6, deadline=0.5),
            )
        except TimeoutError_:
            pass
        yield Timeout(3.0)  # let the stale request reach the server

    sim.run_process(run())
    assert ran == []
    assert sim.metrics.counter("resilience.admission.server.shed_expired").value == 1


# ----------------------------------------------------------------------
# Admission control: BUSY rejections and the degraded-mode hook


def _occupied_server(degraded=None):
    sim, net, server, client = setup_pair()
    server.use_admission(AdmissionConfig(max_inflight=1))
    if degraded is not None:
        server.on_degraded("slow")(degraded)  # decorator form, as README teaches

    @server.on("slow")
    def slow(_ep, _msg):
        yield Timeout(5.0)
        return {"value": 1}

    occupier = Endpoint(net, "occupier")
    occupier.start()

    def occupy():
        yield from occupier.call(
            "server", "slow", policy=RetryPolicy(max_attempts=1, timeout=20.0)
        )

    sim.spawn(occupy())
    return sim, server, client


def test_every_attempt_busy_raises_server_busy():
    sim, _server, client = _occupied_server()

    def run():
        yield Timeout(0.1)  # the occupier's request is being served
        try:
            yield from client.call(
                "server", "slow", policy=RetryPolicy(max_attempts=3, timeout=1.0)
            )
        except ServerBusyError:
            return sim.now

    # Three attempts, three instant BUSY replies: no timer ever expires.
    assert sim.run_process(run()) < 1.0
    assert sim.metrics.counter("rpc.client.busy_rejections").value == 3


def test_degraded_hook_answers_busy_with_a_stale_guess():
    sim, _server, client = _occupied_server(
        degraded=lambda _ep, _msg: {"value": 0, "stale": True}
    )

    def run():
        yield Timeout(0.1)
        return (yield from client.call(
            "server", "slow", policy=RetryPolicy(max_attempts=1, timeout=1.0))
        )

    reply = sim.run_process(run())
    assert reply == {"value": 0, "stale": True, "degraded": True}
    assert sim.metrics.counter("rpc.server.degraded_replies").value == 1


def test_degraded_hook_returning_none_falls_back_to_busy():
    sim, _server, client = _occupied_server(degraded=lambda _ep, _msg: None)

    def run():
        yield Timeout(0.1)
        try:
            yield from client.call(
                "server", "slow", policy=RetryPolicy(max_attempts=1, timeout=1.0)
            )
        except ServerBusyError:
            return "busy"

    assert sim.run_process(run()) == "busy"


# ----------------------------------------------------------------------
# Circuit breaker wired into call and cast


class _TripsOnTwo(BreakerConfig):
    failure_threshold = 2


def _breaker_setup():
    sim, _net, server, client = setup_pair()
    client.use_breaker(_TripsOnTwo(recovery_time=1.0))
    mode = ["slow"]

    @server.on("ping")
    def ping(_ep, _msg):
        if mode[0] == "slow":
            yield Timeout(10.0)
        return {"pong": True}

    return sim, client, mode


def test_breaker_opens_then_recloses_after_probe():
    sim, client, mode = _breaker_setup()

    def run():
        out = []
        try:
            yield from client.call(
                "server", "ping", policy=RetryPolicy(max_attempts=4, timeout=0.1)
            )
        except BreakerOpenError:
            # Two timeouts tripped it; the third attempt never sent.
            out.append(client.breaker_state("server"))
        yield Timeout(1.0)                          # cool-off elapses
        mode[0] = "fast"
        reply = yield from client.call(
            "server", "ping", policy=RetryPolicy(max_attempts=1, timeout=1.0)
        )
        out.append(reply["pong"])
        out.append(client.breaker_state("server"))  # probe success reclosed it
        return out

    assert sim.run_process(run()) == ["open", True, "closed"]
    assert sim.metrics.counter("resilience.breaker.client.open").value == 1
    assert sim.metrics.counter("resilience.breaker.client.short_circuits").value >= 1


def test_failed_probe_reopens_the_breaker():
    sim, client, _mode = _breaker_setup()

    def run():
        try:
            yield from client.call(
                "server", "ping", policy=RetryPolicy(max_attempts=4, timeout=0.1)
            )
        except BreakerOpenError:
            pass
        yield Timeout(1.0)
        try:
            # Still slow: the half-open probe times out.
            yield from client.call(
                "server", "ping", policy=RetryPolicy(max_attempts=1, timeout=0.1)
            )
        except TimeoutError_:
            pass
        return client.breaker_state("server")

    assert sim.run_process(run()) == "open"


def test_remote_application_errors_do_not_trip_the_breaker():
    sim, _net, server, client = setup_pair()
    client.use_breaker(_TripsOnTwo())

    @server.on("boom")
    def boom(_ep, _msg):
        raise ValueError("kaput")

    from repro.net.rpc import RpcError

    def run():
        for _ in range(3):
            try:
                yield from client.call("server", "boom", policy=RetryPolicy(max_attempts=1))
            except RpcError:
                pass
        return client.breaker_state("server")

    # An answering server is a healthy server, whatever it answered.
    assert sim.run_process(run()) == "closed"
