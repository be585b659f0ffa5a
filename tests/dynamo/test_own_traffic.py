"""Repair learns of a dead peer from its own traffic, not the fabric.

A Merkle round, a join's pulls and a decommission's pushes and sweep do
not ask whether a peer is reachable: the initiator tries, an unanswered
exchange is counted in ``dynamo.anti_entropy_errors``, and the peer is
skipped for the rest of the round once its initiator has had an answer. A partition (the peer up, but cut
off) is the case the fabric used to hide. Hinted handoff knows the ring,
so a hint whose owner left it is re-aimed or dropped instead of being
retried for ever.
"""

import pytest

from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.dynamo.ring import moved_ranges, ring_hash

ERRORS = "dynamo.anti_entropy_errors"


def _preloaded(num_nodes, keys, seed):
    """Every key on its intended owners, one version each: converged."""
    cluster = DynamoCluster(num_nodes=num_nodes, seed=seed)
    for i in range(keys):
        version = VersionedValue(i, VectorClock({"loader": 1}))
        for owner in cluster.ring.intended_owners(f"k{i}", cluster.n):
            cluster.nodes[owner].store_version(f"k{i}", version)
    return cluster


def _errors(cluster):
    return cluster.sim.metrics.counters().get(ERRORS, 0)


def _only_on(cluster, name, key):
    """Store a second, newer version of ``key`` on ``name`` alone."""
    newer = VersionedValue("late", VectorClock({"loader": 1, name: 1}))
    cluster.nodes[name].store_version(key, newer)
    return newer


@pytest.mark.parametrize("victim, silences", [("node2", 1), ("node0", 4)])
def test_a_merkle_round_with_a_partitioned_peer_completes_and_heals_next_round(
    victim, silences
):
    """node2 is blamed by the first initiator that has had an answer and
    then meets it. node0 initiates first and cannot tell that it is the
    one cut off: no peer answers it, so it pays a silence per peer and
    blames no one. Either way the rest of the ring repairs."""
    cluster = _preloaded(5, 60, seed=41)
    owned = [f"k{i}" for i in range(60)
             if victim in cluster.ring.intended_owners(f"k{i}", cluster.n)]
    elsewhere = next(f"k{i}" for i in range(60) if f"k{i}" not in owned)
    late = _only_on(cluster, victim, owned[0])
    apart = _only_on(
        cluster, cluster.ring.intended_owners(elsewhere, cluster.n)[0], elsewhere
    )
    cluster.network.partition([[victim]])

    stats = cluster.sim.run_process(cluster.run_merkle_round())
    assert _errors(cluster) == silences
    assert stats["digest_msgs"] > 0
    assert not cluster.converged_on(owned[0])
    assert cluster.converged_on(elsewhere)

    cluster.network.heal()
    cluster.sim.run_process(cluster.run_merkle_round())
    assert _errors(cluster) == silences
    assert all(cluster.converged_on(f"k{i}") for i in range(60))
    for key, version in ((owned[0], late), (elsewhere, apart)):
        for owner in cluster.ring.intended_owners(key, cluster.n):
            assert cluster.nodes[owner].versions_of(key) == (version,)


def test_an_initiator_whose_first_two_peers_are_down_still_repairs_the_rest():
    """node1 and node2 crashed: node0 meets two silences before any
    answer, blames neither, and still exchanges with node3-node5 in the
    same round. No one else pairs with node0, so nothing else would."""
    cluster = _preloaded(6, 60, seed=44)
    cluster.crash("node1")
    cluster.crash("node2")
    mine = [f"k{i}" for i in range(60)
            if "node0" in cluster.ring.intended_owners(f"k{i}", cluster.n)]
    late = {key: _only_on(cluster, "node0", key) for key in mine}
    assert any(
        set(cluster.ring.intended_owners(key, cluster.n)) & {"node3", "node4", "node5"}
        for key in mine
    )

    cluster.sim.run_process(cluster.run_merkle_round())
    assert _errors(cluster) == 2
    for key in mine:
        assert cluster.converged_on(key)
        for owner in cluster.ring.intended_owners(key, cluster.n):
            if cluster.alive(owner):
                assert cluster.nodes[owner].versions_of(key) == (late[key],)


def test_a_join_with_a_partitioned_source_completes_and_heals_next_round():
    cluster = _preloaded(5, 80, seed=42)
    after = cluster.ring.clone()
    after.add_node("node5")
    # A source that keeps an arc the joiner gains, and a key on that arc.
    source, key = next(
        (source, f"k{i}")
        for arc in moved_ranges(cluster.ring, after, cluster.n)
        if "node5" in arc.gained
        for source in arc.old_owners if source in arc.new_owners
        for i in range(80) if arc.contains_hash(ring_hash(f"k{i}"))
    )
    late = _only_on(cluster, source, key)
    cluster.network.partition([[source]])

    stats = cluster.sim.run_process(cluster.join("node5"))
    assert _errors(cluster) == 1
    assert stats["versions_moved"] > 0  # the other sources still shipped
    assert "node5" in cluster.ring.intended_owners(key, cluster.n)
    assert late not in cluster.nodes["node5"].versions_of(key)

    cluster.network.heal()
    cluster.sim.run_process(cluster.run_merkle_round())
    assert _errors(cluster) == 1
    assert all(cluster.converged_on(f"k{i}") for i in range(80))
    assert cluster.nodes["node5"].versions_of(key) == (late,)


def test_a_version_the_leaver_stores_after_its_range_push_reaches_every_owner():
    cluster = _preloaded(6, 60, seed=43)
    leaver = cluster.nodes["node0"]
    key = next(f"k{i}" for i in range(60) if f"k{i}" in leaver.store)
    late = VersionedValue("late", VectorClock({"loader": 1, "node0": 1}))
    listed = leaver.leftover_arcs

    def after_the_push():
        # A write that lands once the range push is over: only the
        # sweep's exchanges can still carry it.
        leaver.store_version(key, late)
        return listed()

    leaver.leftover_arcs = after_the_push
    stats = cluster.sim.run_process(cluster.decommission("node0"))
    assert stats["leftover_pushes"] == cluster.n
    for owner in cluster.ring.intended_owners(key, cluster.n):
        assert cluster.nodes[owner].versions_of(key) == (late,)
    assert _errors(cluster) == 0


@pytest.mark.parametrize("leaves", [0, 1], ids=["holder-now-owns", "re-aimed"])
def test_a_hint_for_an_owner_that_left_the_ring_does_not_stay_queued(leaves):
    """Two owners down at a PUT: two fallbacks hold one hint each. The
    owner ``leaves`` then leaves the ring. The first fallback now owns the
    key, so its hint for owner 0 is dropped; the second does not, so its
    hint for owner 1 is re-aimed at the key's current owners."""
    cluster = DynamoCluster(num_nodes=6, seed=1)
    owners = cluster.ring.intended_owners("k7", cluster.n)
    cluster.crash(owners[0])
    cluster.crash(owners[1])
    cluster.sim.run_process(cluster.client().put("k7", "v"))
    holders = {node.hints[0][0]: name for name, node in cluster.nodes.items()
               if node.hints}
    assert sorted(holders) == sorted(owners[:2])
    cluster.restart(owners[0])
    cluster.restart(owners[1])
    gone = owners[leaves]
    cluster.sim.run_process(cluster.decommission(gone))

    cluster.sim.run_process(cluster.run_handoff_round())
    assert all(not node.hints for node in cluster.nodes.values())
    for owner in cluster.ring.intended_owners("k7", cluster.n):
        assert [v.value for v in cluster.nodes[owner].versions_of("k7")] == ["v"]
    holder = cluster.nodes[holders[gone]]
    assert (holder.name in cluster.ring.intended_owners("k7", cluster.n)) == (
        leaves == 0
    )
