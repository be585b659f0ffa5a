"""Operations cross the fabric by reference: every replica holds the
object its ingress replica stamped, never a copy."""

from repro.core import Operation
from repro.gossip import GossipCluster
from repro.sim.scheduler import Simulator
from repro.txn import MixedTxnSystem, ResourceMachine
from tests.gossip.test_gossip import add, counter_registry


def test_one_exchange_shares_the_senders_ops_both_ways():
    cluster = GossipCluster(counter_registry(), num_replicas=2, seed=1)
    mine = [add(1, uniq="a1"), add(2, uniq="a2")]
    theirs = [add(3, uniq="b1")]
    for op in mine:
        cluster.submit("g0", op)
    for op in theirs:
        cluster.submit("g1", op)
    moved = cluster.sim.run_process(cluster.node("g0").exchange_with("g1"))
    assert moved == 3
    pushed = {op.uniquifier: op for op in cluster.replica("g1").ops}
    pulled = {op.uniquifier: op for op in cluster.replica("g0").ops}
    assert all(pushed[op.uniquifier] is op for op in mine)
    assert all(pulled[op.uniquifier] is op for op in theirs)


def test_committed_log_entries_are_the_leaders_and_hold_the_clients_op():
    sim = Simulator(seed=2)
    system = MixedTxnSystem(sim, ResourceMachine({"seats": 2}))
    system.start()
    sim.run(until=1.0)
    strong = Operation(
        "SET_CAPACITY", {"category": "seats", "value": 9}, uniquifier="cap"
    )
    weak = Operation("RESERVE", {"category": "seats"}, uniquifier="r1")
    submitted = {"cap": strong, "r1": weak}
    assert system.submit("txn2", strong).op_class == "strong"
    system.submit("txn1", weak)
    sim.run(until=3.0)
    leader = system.replicas[system.serving]
    committed = [e for e in leader.log[: leader.commit] if e.op is not None]
    assert {e.op.uniquifier for e in committed} == set(submitted)
    for entry in committed:
        assert entry.op is submitted[entry.op.uniquifier]
    for replica in system.replicas.values():
        assert replica.commit == leader.commit
        assert all(
            ours is theirs
            for ours, theirs in zip(replica.log[: replica.commit], leader.log)
        )
    system.stop()
