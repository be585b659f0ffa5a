"""RPC: request/reply, retries, idempotent dedup, crashes."""

import pytest

from repro.errors import InterruptError, TimeoutError_
from repro.net import Endpoint, FixedLatency, LinkConfig, Network
from repro.net.rpc import RpcError, fresh_uniquifier
from repro.resilience import RetryPolicy
from repro.sim import Simulator, Timeout


def setup_pair(seed=0, **link_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, default_link=LinkConfig(**link_kwargs))
    server = Endpoint(net, "server", dedup=True)
    client = Endpoint(net, "client")
    server.start()
    client.start()
    return sim, net, server, client


def test_simple_call():
    sim, _net, server, client = setup_pair()

    @server.on("add")
    def add(_ep, msg):
        return {"sum": msg.payload["a"] + msg.payload["b"]}

    def run():
        result = yield from client.call("server", "add", {"a": 2, "b": 3})
        return result["sum"]

    assert sim.run_process(run()) == 5


def test_generator_handler_can_take_time():
    sim, _net, server, client = setup_pair()

    @server.on("slow")
    def slow(_ep, _msg):
        yield Timeout(4.0)
        return {"done": True}

    def run():
        result = yield from client.call("server", "slow", policy=RetryPolicy(timeout=10.0))
        return (result["done"], sim.now)

    done, now = sim.run_process(run())
    assert done is True
    assert now >= 4.0


def test_handler_error_raises_rpc_error():
    sim, _net, server, client = setup_pair()

    @server.on("boom")
    def boom(_ep, _msg):
        raise ValueError("kaput")

    def run():
        try:
            yield from client.call("server", "boom")
        except RpcError as exc:
            return exc.detail

    assert sim.run_process(run()) == "kaput"


def test_unknown_kind_is_error():
    sim, _net, _server, client = setup_pair()

    def run():
        try:
            yield from client.call("server", "nothing")
        except RpcError as exc:
            return str(exc)

    assert "no handler" in sim.run_process(run())


def test_retry_after_loss_succeeds_idempotently():
    """50% loss: the call should eventually land, and dedup must keep the
    side effect to one execution even when retries reach the server."""
    sim, _net, server, client = setup_pair(seed=3, loss_probability=0.4)
    executions = []

    @server.on("do")
    def do(_ep, msg):
        executions.append(msg.payload["uniquifier"])
        return {"ok": True}

    def run():
        result = yield from client.call(
            "server", "do", policy=RetryPolicy(max_attempts=21, timeout=0.5)
        )
        return result["ok"]

    assert sim.run_process(run()) is True
    assert len(set(executions)) == len(executions) == 1


def test_timeout_after_exhausting_retries():
    sim, _net, _server, client = setup_pair(loss_probability=1.0)

    def run():
        try:
            yield from client.call(
                "server", "x", policy=RetryPolicy(max_attempts=3, timeout=0.2)
            )
        except TimeoutError_:
            return "gave up"

    assert sim.run_process(run()) == "gave up"
    assert sim.metrics.counter("rpc.client.retries").value == 3


def test_unpolicied_call_makes_four_attempts_on_a_one_second_timer():
    sim, _net, _server, client = setup_pair(loss_probability=1.0)

    def run():
        with pytest.raises(TimeoutError_, match="after 4 attempts"):
            yield from client.call("server", "x")
        return sim.now

    assert sim.run_process(run()) == 4.0
    assert sim.metrics.counter("rpc.client.retries").value == 4


def test_dedup_cache_answers_retries_without_rerun():
    sim, _net, server, client = setup_pair()
    runs = []

    @server.on("do")
    def do(_ep, msg):
        runs.append(1)
        return {"n": len(runs)}

    def run():
        first = yield from client.call("server", "do", {"uniquifier": "u-1"})
        second = yield from client.call("server", "do", {"uniquifier": "u-1"})
        return (first["n"], second["n"])

    assert sim.run_process(run()) == (1, 1)
    assert len(runs) == 1
    assert sim.metrics.counter("rpc.server.dedup_hits").value == 1


def test_dedup_cache_is_volatile_across_crash():
    """Fail-fast: a restart forgets the dedup cache — the uniquifier only
    protects within one incarnation unless the app makes it durable."""
    sim, _net, server, client = setup_pair()
    runs = []

    @server.on("do")
    def do(_ep, msg):
        runs.append(1)
        return {"n": len(runs)}

    def run():
        yield from client.call("server", "do", {"uniquifier": "u-1"})
        server.stop("crash")
        server.restart()
        yield from client.call(
            "server", "do", {"uniquifier": "u-1"}, policy=RetryPolicy(timeout=2.0)
        )
        return len(runs)

    assert sim.run_process(run()) == 2


def test_stop_fails_outstanding_calls():
    sim, _net, server, client = setup_pair()

    @server.on("slow")
    def slow(_ep, _msg):
        yield Timeout(100.0)
        return {}

    def run():
        try:
            yield from client.call(
                "server", "slow", policy=RetryPolicy(max_attempts=1, timeout=5.0)
            )
        except TimeoutError_:
            return "timed out"

    def crasher():
        yield Timeout(1.0)
        server.stop("dead")

    sim.spawn(crasher())
    assert sim.run_process(run()) == "timed out"


def test_restart_is_idempotent():
    """A double restart must not serve twice: restarting a serving
    endpoint is a no-op that queues no second start step."""
    sim, _net, server, client = setup_pair()
    calls = []

    @server.on("do")
    def do(_ep, msg):
        calls.append(msg.payload["uniquifier"])
        return {}

    def run():
        queued = sim.pending_count
        server.restart()                       # already serving: no-op
        assert sim.pending_count == queued
        server.stop("crash")
        server.restart()
        queued = sim.pending_count
        server.restart()                       # second restart: no-op
        assert sim.pending_count == queued
        yield from client.call("server", "do", policy=RetryPolicy(timeout=2.0))
        return len(calls)

    assert sim.run_process(run()) == 1         # answered exactly once


def test_stop_interrupts_inflight_handlers():
    """Fail-fast: a crash mid-handler kills the work — the side effect
    after the yield never happens and no reply is ever sent."""
    sim, _net, server, client = setup_pair()
    completed = []

    @server.on("slow")
    def slow(_ep, _msg):
        yield Timeout(2.0)
        completed.append(1)
        return {}

    def run():
        try:
            yield from client.call(
                "server", "slow", policy=RetryPolicy(max_attempts=1, timeout=10.0)
            )
        except Exception:
            pass

    def crasher():
        yield Timeout(1.0)
        assert server.inflight_handlers == 1
        server.stop("dead")
        assert server.inflight_handlers == 0

    sim.spawn(crasher())
    sim.spawn(run())
    sim.run(until=20.0)
    assert completed == []


def test_stop_interrupts_inflight_handlers_in_dispatch_order():
    """A crash kills in-flight handlers in the order they were dispatched,
    not in the address order of their process objects."""
    sim, _net, server, client = setup_pair()
    died = []

    @server.on("slow")
    def slow(_ep, msg):
        try:
            yield Timeout(100.0)
        finally:
            died.append(msg.payload["n"])
        return {}

    for n in range(32):
        client.cast("server", "slow", {"n": n})
    sim.run(until=1.0)
    assert server.inflight_handlers == 32
    server.stop("crash")
    sim.run(until=2.0)
    assert died == list(range(32))
    assert server.inflight_handlers == 0


def test_requests_before_the_start_step_are_served_in_arrival_order():
    """An attached endpoint that has not started holds what arrives; the
    start step hands it over in arrival order — including a request
    delivered in the very timestamp ``start()`` is called in."""
    sim = Simulator()
    net = Network(sim, default_link=LinkConfig(latency=FixedLatency(1.0)))
    server = Endpoint(net, "server")
    client = Endpoint(net, "client")
    served = []
    server.register("note", lambda _ep, msg: served.append((sim.now, msg.payload["n"])))

    client.cast("server", "note", {"n": 0})           # arrives at t=1
    sim.schedule(0.5, client.cast, "server", "note", {"n": 1})   # t=1.5
    sim.schedule(1.0, client.cast, "server", "note", {"n": 2})   # t=2, ...
    sim.schedule(2.0, server.start)                   # ... queued before start()
    sim.schedule(1.0, client.cast, "server", "note", {"n": 3})   # t=2, after it
    sim.run(until=1.75)
    assert served == [] and server.inflight_handlers == 0
    sim.run()
    assert served == [(2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3)]


def test_stop_before_the_start_step_serves_nothing():
    sim, net, _server, client = setup_pair()
    late = Endpoint(net, "late")
    served = []
    late.register("note", lambda _ep, _msg: served.append(1))
    client.cast("late", "note")
    sim.run()                                         # held: never started
    late.start()
    late.stop("crash")                                # the start step is stale
    sim.run()
    assert served == [] and late.inflight_handlers == 0
    late.restart()
    client.cast("late", "note")
    sim.run()
    assert served == [1]                              # what was held is gone


def test_plain_handler_dispatched_before_a_same_instant_stop_still_runs():
    """The handler's lane step is already queued when the crash lands: it
    runs (as the handler process's kick-off always did), the detached
    fabric drops its reply, and nothing is left in flight."""
    sim, net, server, client = setup_pair(latency=FixedLatency(1.0))
    ran = []
    server.register("do", lambda _ep, _msg: ran.append(sim.now) or {})
    outcome = []

    def run():
        try:
            yield from client.call("server", "do", policy=RetryPolicy(max_attempts=1))
        except TimeoutError_:
            outcome.append("timed out")

    sim.spawn(run())
    sim.run(until=0.5)
    # Same timestamp as the request's delivery, one heap entry behind it:
    # after the dispatch, before the handler's lane step.
    sim.schedule(0.5, server.stop, "crash")
    sim.run()
    assert ran == [1.0]
    assert outcome == ["timed out"]
    assert server.inflight_handlers == 0
    assert sim.metrics.counter("net.dropped").value == 1


def test_a_handler_queued_across_a_same_instant_restart_leaves_no_dedup_entry():
    """The crash forgot the dedup cache; the handler it overtook must not
    refill it for the new incarnation, so a retry of that uniquifier
    runs again rather than being answered from the dead one's work."""
    sim, _net, server, client = setup_pair(latency=FixedLatency(1.0))
    runs = []
    server.register("do", lambda _ep, _msg: runs.append(sim.now) or {})

    def crash_and_restart():
        server.stop("crash")
        server.restart()

    client.cast("server", "do", {"uniquifier": "u-1"})
    # After the request's delivery at 1.0, before the handler's lane step.
    sim.schedule(1.0, crash_and_restart)
    sim.run()
    assert runs == [1.0]

    def retry():
        yield from client.call(
            "server", "do", {"uniquifier": "u-1"}, policy=RetryPolicy(timeout=5.0)
        )

    sim.run_process(retry())
    assert runs == [1.0, 3.0]
    assert sim.metrics.counter("rpc.server.dedup_hits").value == 0


def test_generator_handler_dispatched_before_a_same_instant_stop_is_interrupted():
    sim, _net, server, client = setup_pair(latency=FixedLatency(1.0))
    trail = []

    @server.on("slow")
    def slow(_ep, _msg):
        trail.append("began")
        try:
            yield Timeout(5.0)
            trail.append("finished")
        except InterruptError as exc:
            trail.append(f"interrupted: {exc.cause}")
            raise

    client.cast("server", "slow")
    sim.schedule(1.0, server.stop, "crash")
    sim.run()
    assert trail == ["began", "interrupted: crash"]
    assert server.inflight_handlers == 0
    assert sim.metrics.counter("net.sent").value == 1  # a dead node does not speak


def test_restart_after_a_network_side_detach_serves_once_and_keeps_its_handlers():
    """Only the fabric dropped the endpoint (``stop()`` never ran): a
    ``restart()`` re-attaches without a second dispatch path, and a
    handler in flight across it still counts, finishes and replies."""
    sim, net, server, client = setup_pair()
    served = []

    @server.on("slow")
    def slow(_ep, msg):
        yield Timeout(1.0)
        served.append(msg.payload["n"])
        return {}

    server.register("quick", lambda _ep, msg: served.append(msg.payload["n"]) or {})

    def run():
        slow_call = sim.spawn(client.call("server", "slow", {"n": 0}))
        yield Timeout(0.5)
        assert server.inflight_handlers == 1
        net.detach("server")
        server.restart()
        server.restart()                              # serving again: no-op
        assert server.inflight_handlers == 1
        yield from client.call("server", "quick", {"n": 1},
                               policy=RetryPolicy(timeout=2.0))
        yield slow_call
        return server.inflight_handlers

    assert sim.run_process(run()) == 0
    assert served == [1, 0]


def test_interrupted_caller_leaves_no_pending_entry_behind():
    """The caller dies mid-call and the reply never comes: the attempt's
    timer, which fires anyway, is what forgets the expected reply."""
    sim, _net, _server, client = setup_pair(loss_probability=1.0)

    def run():
        yield from client.call(
            "server", "x", policy=RetryPolicy(max_attempts=1, timeout=0.5)
        )

    caller = sim.spawn(run())
    sim.schedule(0.1, caller.interrupt, "gone")
    sim.run(until=0.4)
    assert isinstance(caller.done.exception, InterruptError)
    assert len(client._pending) == 1
    sim.run(until=1.0)
    assert client._pending == {}
    # Two serve-loop starts, the caller's start, interrupt(), its throw,
    # the timer: the clean-up costs no step of its own.
    assert sim.steps == 6


def test_late_and_duplicate_replies_are_dropped():
    """Every message is delivered twice, so one call draws four replies to
    the same request id: the first settles the call, the rest find nothing
    pending — as does a reply that arrives after its attempt expired."""
    sim, _net, server, client = setup_pair(duplicate_probability=1.0)
    runs = []

    @server.on("do")
    def do(_ep, msg):
        runs.append(sim.now)
        yield Timeout(msg.payload["work"])
        return {"n": len(runs)}

    def run():
        quick = yield from client.call("server", "do", {"work": 0.0})
        # Outlives the first attempt's 0.2 s timer; the retry is parked
        # behind the original execution and answered from it.
        slow = yield from client.call(
            "server", "do", {"work": 0.3}, policy=RetryPolicy(timeout=0.2)
        )
        return (quick["n"], slow["n"])

    assert sim.run_process(run()) == (1, 2)
    assert len(runs) == 2
    assert client._pending == {}
    assert sim.metrics.counter("rpc.client.retries").value == 1


def test_cast_fire_and_forget():
    sim, _net, server, client = setup_pair()
    seen = []

    @server.on("note")
    def note(_ep, msg):
        seen.append(msg.payload["text"])
        return {}

    client.cast("server", "note", {"text": "hello"})
    sim.run(until=1.0)
    assert seen == ["hello"]


def test_fresh_uniquifiers_unique():
    ids = {fresh_uniquifier() for _ in range(100)}
    assert len(ids) == 100
