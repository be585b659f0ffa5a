"""GossipNode unit-level behaviour: digest contents, exchange mechanics."""

from repro.core import Operation, Replica, TypeRegistry
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
    return sim, a, b


def test_peers_exclude_self():
    _sim, a, _b = make_pair()
    assert a.peers == ["b"]


def test_single_exchange_moves_both_directions():
    sim, a, b = make_pair()
    a.replica.submit(Operation("ADD", {"amount": 1}, uniquifier="ua"))
    b.replica.submit(Operation("ADD", {"amount": 2}, uniquifier="ub"))

    def run():
        moved = yield from a.exchange_with("b")
        return moved

    moved = sim.run_process(run())
    assert moved == 2
    assert a.replica.state["total"] == b.replica.state["total"] == 3


def test_exchange_noop_when_converged():
    sim, a, b = make_pair()
    op = Operation("ADD", {"amount": 1}, uniquifier="shared")
    a.replica.submit(op)
    b.replica.integrate([op])

    def run():
        moved = yield from a.exchange_with("b")
        return moved

    assert sim.run_process(run()) == 0


def test_digest_handler_reports_wants():
    sim, a, b = make_pair()
    b.replica.submit(Operation("ADD", {"amount": 2}, uniquifier="only-b"))

    class FakeMsg:
        payload = {"have": ["only-a"]}

    reply = b._handle_digest(b.endpoint, FakeMsg())
    assert [entry["uniquifier"] for entry in reply["ops"]] == ["only-b"]
    assert reply["want"] == ["only-a"]
