"""Networked gossip: convergence over a real (simulated) fabric."""

import pytest

from repro.core import BusinessRule, Operation, RuleEngine, TypeRegistry
from repro.gossip import GossipCluster, op_from_wire, wire_op


def counter_registry():
    registry = TypeRegistry(initial_state=dict)
    registry.register(
        "ADD", lambda s, op: {**s, "total": s.get("total", 0) + op.args["amount"]}
    )
    return registry


def add(amount, uniq=None, at=0.0):
    return Operation("ADD", {"amount": amount}, uniquifier=uniq, ingress_time=at)


def run(cluster, until):
    """Start every node's gossip loop and run the simulation."""
    for node in cluster.nodes.values():
        node.run(until)
    cluster.sim.run(until=until)


def test_wire_roundtrip():
    op = add(5, uniq="u1", at=2.0)
    op.origin = "g0"
    back = op_from_wire(wire_op(op))
    assert back == op
    assert back.args == op.args
    assert back.origin == "g0"
    assert back.ingress_time == 2.0


def test_cluster_converges_over_the_fabric():
    cluster = GossipCluster(counter_registry(), num_replicas=4, period=0.5, seed=3)
    for index, name in enumerate(cluster.nodes):
        cluster.submit(name, add(10 * (index + 1)))
    run(cluster, until=20.0)
    assert cluster.converged()
    assert all(state["total"] == 100 for state in cluster.states())
    assert cluster.sim.metrics.counter("gossip.net.ops_moved").value > 0


def test_partition_blocks_then_heals():
    cluster = GossipCluster(counter_registry(), num_replicas=3, period=0.5, seed=5)
    # Cut g2 off for the first 10 seconds.
    cluster.network.partition([["g0", "g1"], ["g2"]])
    cluster.sim.schedule_at(10.0, cluster.network.heal)
    for index, name in enumerate(cluster.nodes):
        cluster.submit(name, add(index + 1))
    run(cluster, until=8.0)
    assert not cluster.converged()
    isolated = cluster.replica("g2")
    assert isolated.state["total"] == 3  # its own op only
    # Keep gossiping past the heal.
    for node in cluster.nodes.values():
        node.run(until=30.0)
    cluster.sim.run(until=30.0)
    assert cluster.converged()
    assert all(state["total"] == 6 for state in cluster.states())


def test_crashed_node_catches_up_after_restart():
    cluster = GossipCluster(counter_registry(), num_replicas=3, period=0.5, seed=7)
    cluster.submit("g0", add(5))
    cluster.node("g2").crash()
    run(cluster, until=5.0)
    assert cluster.replica("g2").state.get("total", 0) == 0
    cluster.node("g2").restart(until=20.0)
    for name in ("g0", "g1"):
        cluster.node(name).run(until=20.0)
    cluster.sim.run(until=20.0)
    assert cluster.converged()
    assert cluster.replica("g2").state["total"] == 5
    # Disconnection showed up as failed rounds, not errors.
    failed = sum(node.rounds_failed for node in cluster.nodes.values())
    assert failed >= 1


def test_rules_fire_over_the_network():
    """The E5 scenario on the real fabric: locally-legal work merges into
    a violation, surfacing as apologies through the shared queue."""

    def rules_factory():
        return RuleEngine([
            BusinessRule(
                "cap", lambda s, _op: "over" if s.get("total", 0) > 10 else None
            )
        ])

    cluster = GossipCluster(
        counter_registry(), num_replicas=2, period=0.5, seed=9,
        rules_factory=rules_factory,
    )
    cluster.submit("g0", add(8, at=0.0))
    cluster.submit("g1", add(8, at=0.0))
    run(cluster, until=10.0)
    assert cluster.converged()
    assert cluster.apologies.total >= 1
    assert all(state["total"] == 16 for state in cluster.states())


def test_duplicate_submission_across_nodes_collapses():
    cluster = GossipCluster(counter_registry(), num_replicas=2, period=0.5, seed=11)
    cluster.submit("g0", add(5, uniq="shared"))
    cluster.submit("g1", add(5, uniq="shared"))  # retry landed elsewhere
    run(cluster, until=10.0)
    assert all(state["total"] == 5 for state in cluster.states())
