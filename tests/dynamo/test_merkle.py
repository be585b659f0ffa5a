"""Merkle-digest anti-entropy: convergence at digest-message cost."""

import pytest

from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.dynamo.merkle import all_digests, bucket_of, entry_digests, frontier_digest
from repro.errors import SimulationError
from repro.sim import Timeout


def test_bucket_of_stable():
    assert bucket_of("k", 16) == bucket_of("k", 16)
    assert 0 <= bucket_of("anything", 8) < 8


def test_digest_reflects_content():
    v1 = VersionedValue("a", VectorClock({"n1": 1}))
    v2 = VersionedValue("b", VectorClock({"n1": 2}))
    key = "some-key"
    bucket = bucket_of(key, 4)
    empty = frontier_digest({}, bucket, 4)
    with_v1 = frontier_digest({key: [v1]}, bucket, 4)
    with_v2 = frontier_digest({key: [v2]}, bucket, 4)
    assert empty != with_v1
    assert with_v1 != with_v2
    assert with_v1 == frontier_digest({key: [v1]}, bucket, 4)


def test_digest_ignores_other_buckets():
    v = VersionedValue("a", VectorClock({"n1": 1}))
    key = "some-key"
    other_bucket = (bucket_of(key, 4) + 1) % 4
    assert frontier_digest({key: [v]}, other_bucket, 4) == frontier_digest({}, other_bucket, 4)


def test_all_digests_length():
    assert len(all_digests({}, 8)) == 8


@pytest.mark.parametrize("buckets", [0, -1])
def test_no_buckets_is_rejected_not_vacuously_converged(buckets):
    """Zero buckets used to exchange empty digest lists and report every
    pair in agreement — and bucket_of died on a bare ZeroDivisionError."""
    with pytest.raises(SimulationError, match="bucket"):
        bucket_of("k", buckets)
    with pytest.raises(SimulationError, match="bucket"):
        all_digests({}, buckets)
    with pytest.raises(SimulationError, match="bucket"):
        entry_digests([], buckets)
    cluster = DynamoCluster(num_nodes=4, seed=21)
    with pytest.raises(SimulationError, match="bucket"):
        cluster.sim.run_process(cluster.run_merkle_round(buckets=buckets))
    assert cluster.sim.metrics.counter("net.sent").value == 0


def test_merkle_round_heals_a_missed_write():
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=19, read_repair=False)
    client = cluster.client()
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        cluster.crash(owners[1])
        yield from client.put("k", "v1")
        cluster.restart(owners[1])
        yield Timeout(0.05)
        stats = yield from cluster.run_merkle_round(buckets=8)
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
        first = yield from cluster.run_merkle_round(buckets=8)
        second = yield from cluster.run_merkle_round(buckets=8)
        return first, second

    first, second = cluster.sim.run_process(scenario())
    assert second["bucket_msgs"] == 0
    assert second["versions_moved"] == 0
    assert second["digest_msgs"] > 0  # the cheap heartbeat of agreement


def test_merkle_respects_ownership():
    """Non-owners never accumulate keys through merkle sync."""
    cluster = DynamoCluster(num_nodes=6, n=2, r=1, w=2, seed=23)
    client = cluster.client()

    def scenario():
        yield from client.put("the-key", "v")
        for _ in range(2):
            yield from cluster.run_merkle_round(buckets=8)
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
    for bucket in range(8):
        assert frontier_digest({}, bucket, 8) == frontier_digest({}, bucket, 8)


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
    assert all(bucket_of(key, 1) == 0 for key in list(mine) + list(theirs))
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
    for bucket in range(4):
        assert (frontier_digest(store_ab, bucket, 4)
                == frontier_digest(store_ba, bucket, 4))
        assert (frontier_digest({"k": [forward]}, bucket, 4)
                == frontier_digest({"k": [backward]}, bucket, 4))
