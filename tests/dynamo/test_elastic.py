"""Elastic membership: join bootstraps, decommission drains, no data lost."""

import pytest

from repro.dynamo import DynamoCluster
from repro.errors import SimulationError
from repro.sim import Timeout


def _preload(cluster, count, client):
    def job():
        for i in range(count):
            yield from client.put(f"k{i}", i)
            yield Timeout(0.01)

    cluster.sim.run_process(job())


def test_join_bootstraps_gained_ranges():
    cluster = DynamoCluster(num_nodes=5, seed=31)
    client = cluster.client()
    _preload(cluster, 60, client)

    stats = cluster.sim.run_process(cluster.join("node5"))
    assert stats["moved_ranges"] > 0
    assert stats["versions_moved"] > 0
    assert "node5" in cluster.nodes
    assert cluster.alive("node5")

    joiner = cluster.nodes["node5"]
    for i in range(60):
        key = f"k{i}"
        if "node5" in cluster.ring.intended_owners(key, cluster.n):
            assert any(v.value == i for v in joiner.versions_of(key)), key


def test_join_duplicate_name_rejected():
    cluster = DynamoCluster(num_nodes=3, seed=31)
    with pytest.raises(SimulationError):
        cluster.sim.run_process(cluster.join("node0"))


def test_joined_node_serves_reads_and_writes():
    cluster = DynamoCluster(num_nodes=5, seed=32)
    client = cluster.client()
    _preload(cluster, 20, client)
    cluster.sim.run_process(cluster.join("node5"))

    def job():
        yield from client.put("fresh", "after-join")
        result = yield from client.get("fresh")
        return result

    result = cluster.sim.run_process(job())
    assert result.values == ["after-join"]


def test_decommission_drains_before_departing():
    cluster = DynamoCluster(num_nodes=6, seed=33)
    client = cluster.client()
    _preload(cluster, 60, client)

    stats = cluster.sim.run_process(cluster.decommission("node0"))
    assert "node0" not in cluster.nodes
    assert "node0" not in cluster.ring.nodes
    assert stats["moved_ranges"] > 0

    # Every acked write is still readable from the reshaped ring.
    def verify():
        values = []
        for i in range(60):
            result = yield from client.get(f"k{i}")
            values.append(result.values)
        return values

    values = cluster.sim.run_process(verify())
    for i, got in enumerate(values):
        assert i in got, f"k{i} lost in decommission"


def test_decommission_below_n_rejected():
    cluster = DynamoCluster(num_nodes=3, n=3, seed=31)
    with pytest.raises(SimulationError, match="below N"):
        cluster.sim.run_process(cluster.decommission("node0"))


def test_dead_node_can_be_decommissioned():
    """The leaver's replicas survive on the other owners; anti-entropy
    heals the copy count after the ring drops the corpse."""
    cluster = DynamoCluster(num_nodes=6, seed=34)
    client = cluster.client()
    _preload(cluster, 40, client)
    cluster.crash("node2")

    stats = cluster.sim.run_process(cluster.decommission("node2"))
    assert stats["versions_moved"] == 0  # nothing streamed from a corpse
    assert "node2" not in cluster.nodes

    def heal_and_verify():
        for _ in range(3):
            yield from cluster.run_merkle_round()
            yield Timeout(0.05)
        missing = []
        for i in range(40):
            result = yield from client.get(f"k{i}")
            if i not in result.values:
                missing.append(i)
        return missing

    missing = cluster.sim.run_process(heal_and_verify())
    assert missing == []
    for i in range(40):
        assert cluster.converged_on(f"k{i}")


def test_writes_mid_reshape_route_to_current_ring():
    """A put racing the join lands on owners of the *new* topology —
    hinted handoff and ownership checks consult the live ring."""
    cluster = DynamoCluster(num_nodes=5, seed=35)
    client = cluster.client()

    def scenario():
        cluster.sim.spawn(cluster.join("node5"), name="join")
        yield Timeout(0.001)  # join installs the ring first, then pulls
        yield from client.put("race", "mid-reshape")
        yield Timeout(2.0)  # let the bootstrap finish
        result = yield from client.get("race")
        return result

    result = cluster.sim.run_process(scenario())
    assert "mid-reshape" in result.values
    owners = cluster.ring.intended_owners("race", cluster.n)
    held = [
        o for o in owners
        if any(v.value == "mid-reshape" for v in cluster.nodes[o].versions_of("race"))
    ]
    assert held, owners


# ----------------------------------------------------------------------
# Anti-entropy round hardening (regression: one dead peer used to abort
# the whole round)


def _blackhole(cluster, victim):
    """Make ``victim`` unreachable on the wire while membership and the
    network registry still call it alive — the undetected-failure window
    the round-hardening bugfix is about."""
    from repro.net.network import LinkConfig

    for other in cluster.nodes:
        if other != victim:
            cluster.network.set_link(other, victim, LinkConfig(loss_probability=1.0))


def test_anti_entropy_round_survives_dead_peer():
    """A peer timing out mid-round used to abort the whole round with
    the first TimeoutError_; now the peer is skipped, the error counted,
    and every other pair still syncs."""
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=36)
    client = cluster.client()
    victim = cluster.ring.intended_owners("k0", cluster.n)[0]

    def scenario():
        cluster.crash(victim)  # misses the writes...
        for i in range(10):
            yield from client.put(f"k{i}", i)
            yield Timeout(0.01)
        cluster.restart(victim)
        # ...then goes dark *undetected*: membership still says alive,
        # so the round pushes to it and fails partway through.
        _blackhole(cluster, victim)
        pushed = yield from cluster.run_anti_entropy_round()
        return pushed

    cluster.sim.run_process(scenario())  # completing at all is the fix
    assert cluster.sim.metrics.counters().get("dynamo.anti_entropy_errors", 0) > 0


def test_merkle_round_survives_dead_peer():
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=37)
    client = cluster.client()
    _preload(cluster, 20, client)
    _blackhole(cluster, "node1")  # undetected: membership says alive

    stats = cluster.sim.run_process(cluster.run_merkle_round())
    assert cluster.sim.metrics.counters().get("dynamo.anti_entropy_errors", 0) > 0
    # The other pairs still exchanged digests.
    assert stats["digest_msgs"] > 0


def test_converged_on_false_with_no_live_owners():
    """Zero live intended owners must read as *not* converged — the
    vacuous True let reconvergence invariants pass during blackouts."""
    cluster = DynamoCluster(num_nodes=5, seed=38)
    client = cluster.client()

    def job():
        yield from client.put("k", "v")

    cluster.sim.run_process(job())
    assert cluster.converged_on("k")
    for owner in cluster.ring.intended_owners("k", cluster.n):
        cluster.crash(owner)
    assert not cluster.converged_on("k")
