"""Liveness has one representation: ground truth for the driver is
fabric attachment (``DynamoCluster.alive``), and routing asks a view —
``NO_OPINION`` until ``attach_gossip_membership`` hands out real ones."""

import pytest

from repro.dynamo import DynamoCluster
from repro.dynamo.cluster import NO_OPINION
from repro.errors import SimulationError


def test_alive_follows_crash_and_restart():
    cluster = DynamoCluster(num_nodes=3, seed=1)
    assert all(cluster.alive(name) for name in cluster.nodes)
    cluster.crash("node1")
    assert not cluster.alive("node1") and cluster.alive("node0")
    cluster.restart("node1")
    assert cluster.alive("node1")
    assert not cluster.alive("ghost")


def test_alive_sees_a_node_crashed_behind_the_clusters_back():
    # The cart chaos scenario crashes through DynamoNode.crash() and never
    # told the oracle; truth must not depend on who pulled the plug.
    cluster = DynamoCluster(num_nodes=3, seed=1)
    cluster.nodes["node2"].crash()
    assert not cluster.alive("node2")
    cluster.nodes["node2"].restart()
    assert cluster.alive("node2")


def _cold_restart_in_flight():
    """node0 cold-crashed with a checkpoint on disk, and its rejoin — a
    disk-timed snapshot load — started but not finished."""
    cluster = DynamoCluster(num_nodes=3, seed=1, snapshot_cadence=0.2)
    cluster.sim.run_process(cluster.client().put("k", "v"))
    cluster.sim.run(until=1.0)  # let a checkpoint land
    cluster.cold_crash("node0")
    assert not cluster.alive("node0")
    rejoin = cluster.sim.spawn(cluster.cold_restart("node0"))
    cluster.sim.run(until=cluster.sim.now + 1e-6)
    assert rejoin.alive
    return cluster, rejoin


def test_alive_follows_cold_crash_and_cold_restart():
    cluster, rejoin = _cold_restart_in_flight()
    assert not cluster.alive("node0")  # still down while the load runs
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert not rejoin.alive and cluster.alive("node0")


def test_crash_during_a_cold_restart_does_not_outlive_it():
    cluster, rejoin = _cold_restart_in_flight()
    cluster.crash("node0")  # lands while the load is in flight
    assert not cluster.alive("node0")
    cluster.sim.run(until=cluster.sim.now + 1.0)
    # The restart that was already under way completes and wins, exactly
    # as when the oracle recorded mark_down then mark_up.
    assert not rejoin.alive and cluster.alive("node0")


def test_alive_follows_join_and_decommission():
    cluster = DynamoCluster(num_nodes=4, seed=1)
    assert not cluster.alive("node4")
    cluster.sim.run_process(cluster.join("node4"))
    assert cluster.alive("node4")
    cluster.sim.run_process(cluster.decommission("node0"))
    assert not cluster.alive("node0") and "node0" not in cluster.nodes
    cluster.crash("node1")
    cluster.sim.run_process(cluster.decommission("node1"))  # a dead node too
    assert not cluster.alive("node1")


# ----------------------------------------------------------------------
# Views


def test_a_cluster_without_gossip_holds_no_opinion():
    cluster = DynamoCluster(num_nodes=3, seed=1)
    assert cluster.views == {}
    assert cluster.client().view is NO_OPINION
    cluster.crash("node1")
    # No opinion, even of a corpse: reachability decides, not the view.
    assert cluster._usable_by("node0", "node1")
    assert NO_OPINION.is_usable("anyone")


@pytest.mark.parametrize("ask", ["view_of", "client"])
def test_asking_for_a_view_that_does_not_exist_is_a_domain_error(ask):
    cluster = DynamoCluster(num_nodes=3, seed=1)

    def view(name):
        if ask == "view_of":
            return cluster.view_of(name)
        return cluster.client(view_of=name).view

    with pytest.raises(SimulationError, match="no gossip membership view"):
        view("node0")  # before attach_gossip_membership
    cluster.attach_gossip_membership()
    assert view("node0") is cluster.views["node0"]
    with pytest.raises(SimulationError, match="no gossip membership view"):
        view("ghost")


def test_gossip_lifecycle_guards():
    cluster = DynamoCluster(num_nodes=3, seed=1)
    with pytest.raises(SimulationError, match="attach_gossip_membership first"):
        cluster.start_membership_gossip()
    cluster.attach_gossip_membership()
    with pytest.raises(SimulationError, match="already attached"):
        cluster.attach_gossip_membership()


def test_joining_a_gossiping_ring_is_a_domain_error():
    cluster = DynamoCluster(num_nodes=4, seed=1)
    cluster.attach_gossip_membership()
    with pytest.raises(SimulationError, match="cannot join 'node4': gossip"):
        cluster.sim.run_process(cluster.join("node4"))
    assert sorted(cluster.nodes) == ["node0", "node1", "node2", "node3"]
    assert sorted(cluster.views) == sorted(cluster.nodes)


def test_decommissioning_from_a_gossiping_ring_is_a_domain_error():
    cluster = DynamoCluster(num_nodes=4, seed=1)
    cluster.attach_gossip_membership()
    with pytest.raises(SimulationError, match="cannot decommission 'node3': gossip"):
        cluster.sim.run_process(cluster.decommission("node3"))
    assert cluster.alive("node3") and "node3" in cluster.views


def test_a_warm_crashed_node_checkpoints_only_once_restarted():
    """A crash stops a node's checkpoint loop with its endpoint (a
    corpse writes no snapshots); the restart resumes it."""
    cluster = DynamoCluster(
        num_nodes=4, n=3, r=2, w=2, seed=3, snapshot_cadence=1.0
    )
    sim, node0 = cluster.sim, cluster.nodes["node0"]
    installs = sim.metrics.histogram("snapshot.node0.tail_at_install")
    client = cluster.client("c0")

    def writes():
        for i in range(20):
            yield from client.put(f"k{i}", i)

    sim.spawn(writes())
    while not node0.snapshotter._dirty:
        sim.run(max_steps=1)
    cluster.crash("node0")
    sim.run(until=sim.now + 5.0)
    assert installs.count == 0
    cluster.restart("node0")
    sim.run(until=sim.now + 5.0)
    assert installs.count == 1
