"""Fabric delivery: latency, loss, duplication, partitions, crashes."""

import weakref

import pytest

from repro.errors import SimulationError
from repro.net import FixedLatency, LinkConfig, Message, NetFault, Network
from repro.sim import Simulator


def make_net(seed=0, **link_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, default_link=LinkConfig(**link_kwargs))
    return sim, net


def test_basic_delivery_with_latency():
    sim, net = make_net(latency=FixedLatency(2.5))
    box = net.attach("b")
    net.attach("a")
    assert net.send(Message("a", "b", "ping"))
    sim.run()
    assert sim.now == 2.5
    assert [msg.kind for msg in box.drain()] == ["ping"]


def test_send_to_unknown_endpoint_drops():
    sim, net = make_net()
    net.attach("a")
    assert not net.send(Message("a", "ghost", "ping"))
    assert sim.metrics.counter("net.dropped").value == 1


def test_double_attach_rejected():
    _sim, net = make_net()
    net.attach("a")
    with pytest.raises(SimulationError):
        net.attach("a")


def test_detach_drops_messages_and_reattach_revives():
    sim, net = make_net()
    net.attach("a")
    box = net.attach("b")
    box.put(Message("a", "b", "stale"))
    net.detach("b")
    assert not net.send(Message("a", "b", "ping"))
    fresh = net.attach("b")
    assert net.send(Message("a", "b", "pong"))
    sim.run()
    assert [msg.kind for msg in fresh.drain()] == ["pong"]
    assert len(box) == 0  # stale message was drained on detach


def test_attach_without_a_callback_builds_a_live_mailbox_fresh_on_reattach():
    sim, net = make_net()
    net.attach("a")
    box = net.attach("b")
    assert box is net.mailbox("b")
    net.send(Message("a", "b", "one"))
    sim.run()
    assert len(box) == 1                              # delivered, not drained
    net.detach("b")
    fresh = net.attach("b")
    assert fresh is not box and fresh is net.mailbox("b") and len(fresh) == 0


def test_attach_with_a_callback_delivers_to_it_and_builds_no_mailbox():
    sim, net = make_net(latency=FixedLatency(1.0))
    got = []
    net.attach("a")
    assert net.attach("b", deliver=got.append) is None
    with pytest.raises(SimulationError):
        net.mailbox("b")
    with pytest.raises(SimulationError):
        net.attach("b", deliver=got.append)           # still one sink per name
    first, second = Message("a", "b", "one"), Message("a", "b", "two")
    net.send(first)
    sim.run()
    assert got == [first] and sim.now == 1.0          # in the delivery step
    net.send(second)
    net.detach("b")
    sim.run()
    assert got == [first]                             # lost in flight
    assert net.endpoint_count == 2                    # detached, not forgotten
    net.attach("b")                                   # a name may change sink
    net.send(second)
    sim.run()
    assert got == [first] and net.mailbox("b").drain() == [second]


def test_loss_probability_one_drops_everything():
    sim, net = make_net(loss_probability=1.0)
    net.attach("a")
    box = net.attach("b")
    for _ in range(10):
        net.send(Message("a", "b", "ping"))
    sim.run()
    assert len(box) == 0
    assert sim.metrics.counter("net.dropped").value == 10


def test_loss_probability_statistical():
    sim, net = make_net(seed=1, loss_probability=0.5)
    net.attach("a")
    box = net.attach("b")
    for _ in range(400):
        net.send(Message("a", "b", "ping"))
    sim.run()
    assert 140 < len(box) < 260  # ~200 expected


def test_duplication():
    sim, net = make_net()
    net.inject_fault(NetFault(duplicate_probability=1.0))
    net.attach("a")
    box = net.attach("b")
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert len(box) == 2


def test_partition_blocks_cross_group():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    box_c = net.attach("c")
    net.partition([["a", "b"], ["c"]])
    assert net.reachable("a", "b")
    assert not net.reachable("a", "c")
    assert not net.send(Message("a", "c", "ping"))
    net.heal()
    assert net.send(Message("a", "c", "ping"))
    sim.run()
    assert len(box_c) == 1


def test_partition_remainder_group():
    _sim, net = make_net()
    for name in ("a", "b", "x", "y"):
        net.attach(name)
    net.partition([["a", "b"]])
    assert net.reachable("x", "y")  # both in implicit remainder
    assert not net.reachable("a", "x")


def test_in_flight_message_lost_to_partition_cut():
    sim, net = make_net(latency=FixedLatency(5.0))
    net.attach("a")
    box = net.attach("b")
    net.send(Message("a", "b", "ping"))
    sim.schedule(1.0, net.partition, [["a"], ["b"]])
    sim.run()
    assert len(box) == 0


def test_in_flight_message_lost_to_crash():
    sim, net = make_net(latency=FixedLatency(5.0))
    net.attach("a")
    box = net.attach("b")
    net.send(Message("a", "b", "ping"))
    sim.schedule(1.0, net.detach, "b")
    sim.run()
    assert len(box) == 0


class _Blob:
    """A megabyte of payload that a weak reference can watch."""

    def __init__(self):
        self.data = bytes(1 << 20)


@pytest.mark.parametrize(
    "kind", ["drop.unreachable", "drop.loss", "drop.fault", "drop.in_flight"]
)
def test_a_drop_record_frees_the_message_and_renders_its_header(kind):
    sim, net = make_net(
        latency=FixedLatency(5.0), loss_probability=float(kind == "drop.loss")
    )
    net.attach("a")
    net.attach("b")
    if kind == "drop.unreachable":
        net.partition([["a"], ["b"]])
    elif kind == "drop.fault":
        net.inject_fault(NetFault(loss_probability=1.0))
    elif kind == "drop.in_flight":
        sim.schedule(1.0, net.partition, [["a"], ["b"]])
    blob = _Blob()
    freed = weakref.ref(blob)
    msg = Message("a", "b", "PUT", {"blob": blob}, reply_to=7)
    header = f"<Msg#{msg.msg_id} a->b PUT re:7>"
    net.send(msg)
    del msg, blob
    sim.run()
    assert freed() is None
    [record] = sim.trace.find(kind=kind)
    assert record.payload == {"msg": header}
    assert repr(record) == f"[{record.time:.6g}] net {kind} {{'msg': '{header}'}}"


def test_per_link_override():
    sim, net = make_net(latency=FixedLatency(1.0))
    net.attach("a")
    box = net.attach("b")
    net.set_link("a", "b", LinkConfig(latency=FixedLatency(10.0)))
    net.send(Message("a", "b", "slow"))
    sim.run()
    assert sim.now == 10.0
    assert len(box) == 1


def test_message_reply_correlation():
    request = Message("client", "server", "ask", {"q": 1})
    response = request.reply("OK", answer=2)
    assert response.src == "server"
    assert response.dst == "client"
    assert response.reply_to == request.msg_id
    assert response.payload == {"answer": 2}


def test_metrics_counters():
    sim, net = make_net()
    net.attach("a")
    net.attach("b")
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert sim.metrics.counter("net.sent").value == 1
    assert sim.metrics.counter("net.delivered").value == 1
