"""A gossiper whose only peer is detached times out on it every round,
and counts each such round as failed."""

from repro.core import Replica, TypeRegistry
from repro.gossip import GossipNode
from repro.net import Network
from repro.sim import Simulator


def counter_registry():
    registry = TypeRegistry(initial_state=dict)
    registry.register(
        "ADD", lambda s, op: {**s, "total": s.get("total", 0) + op.args["amount"]}
    )
    return registry


def make_pair(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    registry = counter_registry()
    a = GossipNode(net, Replica("a", registry), peers=["a", "b"], period=1.0)
    b = GossipNode(net, Replica("b", registry), peers=["a", "b"], period=1.0)
    return sim, net, a, b


def test_default_still_times_out_on_detached_peer():
    sim, net, a, b = make_pair()
    b.crash()
    a.run(until=10.0)
    sim.run(until=12.0)
    assert a.rounds_attempted > 0
    assert a.rounds_failed == a.rounds_attempted   # every round timed out
