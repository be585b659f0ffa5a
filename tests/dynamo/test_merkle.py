"""Merkle-digest anti-entropy: convergence at digest-message cost."""

import pytest

from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.dynamo.merkle import all_digests, digest
from repro.dynamo.ring import ring_hash
from repro.errors import SimulationError
from repro.sim import Timeout


def test_bucket_of_stable():
    """A key always lands in bucket ``ring_hash(key) % buckets``."""
    v = VersionedValue("a", VectorClock({"n1": 1}))
    empty, with_k = all_digests({}, 16), all_digests({"k": [v]}, 16)
    moved = [bucket for bucket in range(16) if with_k[bucket] != empty[bucket]]
    assert moved == [ring_hash("k") % 16]
    assert all_digests({"k": [v]}, 16) == with_k


def test_digest_reflects_content():
    v1 = VersionedValue("a", VectorClock({"n1": 1}))
    v2 = VersionedValue("b", VectorClock({"n1": 2}))
    key = "some-key"
    empty = digest({}, [])
    with_v1 = digest({key: [v1]}, [key])
    with_v2 = digest({key: [v2]}, [key])
    assert empty != with_v1
    assert with_v1 != with_v2
    assert with_v1 == digest({key: [v1]}, [key])


def test_digest_ignores_other_buckets():
    v = VersionedValue("a", VectorClock({"n1": 1}))
    key = "some-key"
    other_bucket = (ring_hash(key) + 1) % 4
    assert all_digests({key: [v]}, 4)[other_bucket] == all_digests({}, 4)[other_bucket]


def test_all_digests_length():
    assert len(all_digests({}, 8)) == 8


@pytest.mark.parametrize("buckets", [0, -1])
def test_no_buckets_is_rejected_not_vacuously_converged(buckets):
    """Zero buckets would digest nothing and call every store equal."""
    with pytest.raises(SimulationError, match="bucket"):
        all_digests({}, buckets)


def test_merkle_round_heals_a_missed_write():
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=19)
    client = cluster.client()
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        cluster.crash(owners[1])
        yield from client.put("k", "v1")
        cluster.restart(owners[1])
        yield Timeout(0.05)
        stats = yield from cluster.run_merkle_round()
        return stats

    stats = cluster.sim.run_process(scenario())
    assert stats["versions_moved"] >= 1
    assert any(v.value == "v1" for v in cluster.nodes[owners[1]].versions_of("k"))
    assert cluster.converged_on("k")


def test_converged_round_costs_only_digests():
    cluster = DynamoCluster(num_nodes=4, n=3, r=2, w=3, seed=21)
    client = cluster.client()

    def scenario():
        yield from client.put("k1", "a")
        yield from client.put("k2", "b")
        first = yield from cluster.run_merkle_round()
        second = yield from cluster.run_merkle_round()
        return first, second

    first, second = cluster.sim.run_process(scenario())
    assert second["sync_msgs"] == 0
    assert second["versions_moved"] == 0
    assert second["digest_msgs"] > 0  # the cheap heartbeat of agreement


def test_merkle_respects_ownership():
    """Non-owners never accumulate keys through merkle sync."""
    cluster = DynamoCluster(num_nodes=6, n=2, r=1, w=2, seed=23)
    client = cluster.client()

    def scenario():
        yield from client.put("the-key", "v")
        for _ in range(2):
            yield from cluster.run_merkle_round()
        owners = set(cluster.ring.intended_owners("the-key", 2))
        holders = {
            name for name, node in cluster.nodes.items()
            if node.versions_of("the-key")
        }
        return owners, holders

    owners, holders = cluster.sim.run_process(scenario())
    assert holders <= owners | holders  # trivially true; real check below
    # Every non-owner holding the key could only be a hinted fallback from
    # the original PUT, never a merkle recipient: with all nodes up at PUT
    # time there were no hints, so holders ⊆ owners.
    assert holders <= owners


# ----------------------------------------------------------------------
# Edge cases: degenerate stores and representation independence


def test_empty_vs_empty_all_buckets_agree():
    """Two empty stores digest identically in every bucket — an
    anti-entropy pass between fresh nodes moves nothing."""
    assert all_digests({}, 16) == all_digests({}, 16)
    assert digest({}, []) == digest({"k": ()}, [])


def test_single_bucket_total_divergence():
    """With one bucket the whole keyspace is one digest: completely
    disjoint stores disagree on it, and syncing that one bucket is a
    whole-store transfer — the degenerate tree gives no locality."""
    mine = {
        f"k{i}": [VersionedValue(i, VectorClock({"n1": i + 1}))]
        for i in range(10)
    }
    theirs = {
        f"j{i}": [VersionedValue(i, VectorClock({"n2": i + 1}))]
        for i in range(10)
    }
    assert all_digests(mine, 1) == [digest(mine, mine)]
    assert all_digests(mine, 1) != all_digests(theirs, 1)
    # Same content, one bucket: still equal — divergence, not bucketing.
    assert all_digests(mine, 1) == all_digests(dict(mine), 1)


def test_digest_stable_across_insertion_order():
    """The digest is a function of the *set* of (key, clock, value)
    triples, not of dict insertion order — neither store-key order nor
    clock-counter order may leak into the hash."""
    forward = VersionedValue("v", VectorClock({"n1": 1, "n2": 2}))
    backward = VersionedValue("v", VectorClock({"n2": 2, "n1": 1}))
    store_ab = {"a": [forward], "b": [forward]}
    store_ba = {"b": [forward], "a": [forward]}
    assert list(store_ab) != list(store_ba)  # insertion order does differ
    assert all_digests(store_ab, 4) == all_digests(store_ba, 4)
    assert digest(store_ab, ["a", "b"]) == digest(store_ba, ["b", "a"])
    assert digest({"k": [forward]}, ["k"]) == digest({"k": [backward]}, ["k"])


def test_one_sync_ships_every_divergent_arc_of_a_pair():
    """Ten keys written to node0 alone lie on several arcs; each of its
    two peers gets them all in one SYNC_ARCS, after one DIGESTS call, and
    the third pair then agrees on every arc. Each reply leaves out the
    ten just shipped, so every missing version crosses the wire once."""
    cluster = DynamoCluster(num_nodes=3, n=3, r=1, w=1, seed=5)
    keys = [f"k{i}" for i in range(10)]
    for i, key in enumerate(keys):
        cluster.nodes["node0"].store_version(
            key, VersionedValue(i, VectorClock({"loader": 1}))
        )
    assert len({cluster.ring.arc_at(ring_hash(key)) for key in keys}) > 1
    stats = cluster.sim.run_process(cluster.run_merkle_round())
    assert stats == {"digest_msgs": 3, "sync_msgs": 2, "versions_moved": 2 * 10}
    assert all(set(node.store) == set(keys) for node in cluster.nodes.values())
