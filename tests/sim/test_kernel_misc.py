"""Kernel odds and ends: reentrancy, event misuse, value access."""

import pytest

from repro.errors import SimulationError
from repro.net import Endpoint, Network
from repro.sim import AllOf, Event, Simulator, Timeout


def test_run_is_not_reentrant():
    sim = Simulator()
    failures = []

    def naughty():
        try:
            sim.run()
        except SimulationError as exc:
            failures.append(str(exc))

    sim.schedule(1.0, naughty)
    sim.run()
    assert failures and "reentrant" in failures[0]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event("once")
    event.trigger(1)
    with pytest.raises(SimulationError):
        event.trigger(2)
    with pytest.raises(SimulationError):
        event.fail(ValueError("late"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event("pending")
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_value_after_failure_raises_the_exception():
    sim = Simulator()
    event = sim.event("bad").fail(KeyError("k"))
    assert not event.ok
    with pytest.raises(KeyError):
        _ = event.value


def test_fail_requires_an_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event("x").fail("not an exception")  # type: ignore[arg-type]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-0.5)


def test_callback_added_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event("done").trigger("v")
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_processes_named_uniquely_by_default():
    sim = Simulator()

    def idle():
        yield Timeout(0.1)

    names = {sim.spawn(idle()).name for _ in range(5)}
    assert len(names) == 5
    sim.run()


# ----------------------------------------------------------------------
# Names are kept as parts and rendered on first read; readers see a str.


def test_lazy_names_render_exactly_as_the_eager_ones_did():
    sim = Simulator()
    reply = Event(sim, ("reply:%d", 17)).trigger("first")
    with pytest.raises(SimulationError) as twice:
        reply.trigger("second")
    assert str(twice.value) == "event 'reply:17' triggered twice"

    with pytest.raises(SimulationError) as early:
        _ = sim.timeout_event(1.5).value
    assert str(early.value) == "event 'timeout@1.5' has no value yet"
    assert sim.timeout_event(1 / 3).name == "timeout@0.333333"
    assert sim.timeout_event(1.0, name="named").name == "named"

    net = Network(sim)
    net.attach("server")
    assert repr(net.mailbox("server").get()) == "<Event 'net:server.get' pending>"

    def slow_ping(_ep, _msg):
        yield Timeout(1.0)
        return {}

    server = Endpoint(net, "node")
    server.register("PING", slow_ping)
    server.start()
    Endpoint(net, "peer").cast("node", "PING")
    sim.run(until=0.5)
    (handler,) = server._handler_procs.values()
    assert handler.name == "rpc:node:PING"
    assert handler.done.name == "rpc:node:PING.done"


def test_names_read_as_plain_str():
    sim = Simulator()

    def idle():
        yield Timeout(0.1)

    anonymous = sim.spawn(idle())
    named = sim.spawn(idle(), name="worker")
    for name in (anonymous.name, anonymous.done.name, named.name, named.done.name,
                 sim.event("e").name, sim.event().name, sim.timeout_event(2.0).name):
        assert type(name) is str
    assert (anonymous.name, anonymous.done.name) == ("proc-0", "proc-0.done")
    assert (named.name, named.done.name) == ("worker", "worker.done")
    assert "%" not in repr(anonymous)
    sim.run()


def test_effect_subclasses_are_still_effects():
    """The kernel dispatches on the exact class first; a subclass must
    fall through to the isinstance check, not be rejected."""

    class Flag(Event):
        __slots__ = ()

    class Nap(Timeout):
        __slots__ = ()

    sim = Simulator()
    flag = Flag(sim, "flag")
    log = []

    def waiter():
        log.append((yield flag))
        log.append((yield Nap(2.0)))
        log.append((yield flag))  # settled: resumes at once
        log.append(list((yield AllOf([flag])).values()))

    proc = sim.spawn(waiter())
    sim.schedule(1.0, flag.trigger, "raised")
    sim.run()
    assert log == ["raised", None, "raised", ["raised"]]
    assert not proc.alive and sim.now == 3.0


def test_per_request_names_are_kept_as_parts_and_render_unchanged():
    """The three names made once per request — a zipf request's process,
    a quorum op's per-target call, a txn ticket's ``done`` — are stored
    unformatted and read as the text they always had."""
    from repro.core.operation import Operation
    from repro.dynamo import DynamoCluster
    from repro.txn import MixedTxnSystem, ResourceMachine
    from repro.workload import ZipfKeyGenerator, zipf_open_loop

    sim = Simulator(seed=5)
    cluster = DynamoCluster(num_nodes=5, sim=sim)
    client = cluster.client("zipf")
    spawn, spawned = sim.spawn, []

    def recording_spawn(gen, name=None):
        spawned.append(spawn(gen, name=name))
        return spawned[-1]

    sim.spawn = recording_spawn
    keys = ZipfKeyGenerator(sim.rng.stream("zipf"), keyspace=200)
    draw, drawn = keys.key, []
    keys.key = lambda: drawn.append(draw()) or drawn[-1]
    sim.spawn(zipf_open_loop(sim, client, keys, rate=100.0, count=1), name="driver")
    sim.run()
    targets = cluster.ring.preference_list(drawn[0], cluster.n)
    assert [(type(proc._name), proc.name) for proc in spawned[1:]] == [
        (tuple, "zipf-0"), *((tuple, f"zipf.GET.{target}") for target in targets),
    ]

    system = MixedTxnSystem(Simulator(seed=2), ResourceMachine({"seats": 2}))
    ticket = system.submit(
        "txn1", Operation("RESERVE", {"category": "seats"}, uniquifier="a")
    )
    assert type(ticket.done._name) is tuple and ticket.done.name == "txn:a"
