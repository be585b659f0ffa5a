"""Store scans hash each stored key once and read owners from a table.

Background reconciliation only works if it is cheap enough to run all the
time (§6). These are deterministic counts, not timings: a loaded ring is
scanned by both anti-entropy flavours while ``ring_hash`` and the strict
ring walk are counted. The request path is pinned the same way at the
bottom: messages (``net.sent``) and key hashes per GET, PUT and cart op.
"""

import pytest

from repro.cart.service import CartService
from repro.cart.strategies import OpCartStrategy
from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.dynamo import merkle, ring
from repro.dynamo.ring import HashRing

KEYS = 300


@pytest.fixture
def counts(monkeypatch):
    """``ring_hash`` calls and strict (no ``alive`` filter) ring walks."""
    seen = {"hashes": 0, "strict_walks": 0}
    real_hash, real_walk = ring.ring_hash, HashRing._walk

    def counted_hash(value):
        seen["hashes"] += 1
        return real_hash(value)

    def counted_walk(self, start, n, alive):
        if alive is None:
            seen["strict_walks"] += 1
        return real_walk(self, start, n, alive)

    monkeypatch.setattr(ring, "ring_hash", counted_hash)
    monkeypatch.setattr(merkle, "ring_hash", counted_hash)
    monkeypatch.setattr(HashRing, "_walk", counted_walk)
    return seen


def _loaded_ring(counts):
    """Six nodes, every key on its three intended owners — converged."""
    cluster = DynamoCluster(num_nodes=6, n=3, r=2, w=2, seed=20090104)
    for i in range(KEYS):
        version = VersionedValue(i, VectorClock({"loader": 1}))
        for owner in cluster.ring.intended_owners(f"k{i}", cluster.n):
            cluster.nodes[owner].store_version(f"k{i}", version)
    assert sum(len(node.store) for node in cluster.nodes.values()) == 3 * KEYS
    counts.update(hashes=0, strict_walks=0)  # loading is not a scan
    return cluster


def test_merkle_rounds_hash_each_key_once_ever(counts):
    cluster = _loaded_ring(counts)
    run = cluster.sim.run_process
    first = run(cluster.run_merkle_round())
    # 900 replicas scanned from both ends of 15 pairs: 300 hashes.
    assert counts == {"hashes": KEYS, "strict_walks": 0}
    second = run(cluster.run_merkle_round())
    assert counts == {"hashes": KEYS, "strict_walks": 0}
    assert first == second == {
        "digest_msgs": 15, "bucket_msgs": 0, "versions_moved": 0,
    }


def test_anti_entropy_rounds_hash_each_key_once_ever(counts):
    cluster = _loaded_ring(counts)
    run = cluster.sim.run_process
    assert run(cluster.run_anti_entropy_round()) == 0
    assert counts == {"hashes": KEYS, "strict_walks": 0}
    assert run(cluster.run_anti_entropy_round()) == 0
    assert counts == {"hashes": KEYS, "strict_walks": 0}
    # One memo serves both flavours: the Merkle round finds it filled.
    run(cluster.run_merkle_round())
    assert counts == {"hashes": KEYS, "strict_walks": 0}


def test_positions_outlive_a_reshape_and_owners_do_not(counts):
    cluster = _loaded_ring(counts)
    run = cluster.sim.run_process
    run(cluster.run_merkle_round())
    counts.update(hashes=0, strict_walks=0)
    stats = run(cluster.join("node6"))
    assert stats["versions_moved"] > 0
    # The joiner's 16 vnodes are hashed; no stored key is. Strict walks
    # rebuild one owner table per ring state: the pre-join snapshot
    # moved_ranges compares against (96 arcs + the wrap entry) and the
    # live ring (112 + 1).
    assert counts == {"hashes": 16, "strict_walks": 97 + 113}
    run(cluster.run_merkle_round())
    run(cluster.run_anti_entropy_round())
    assert counts == {"hashes": 16, "strict_walks": 97 + 113}


def _cost(cluster, counts, request, placed=None):
    """Run ``request`` to completion: (messages sent, keys hashed). Each
    message's ``(src, dst, kind, payload)`` is appended to ``placed``."""
    sent = cluster.sim.metrics.counter("net.sent")
    messages, hashes = sent.value, counts["hashes"]
    if placed is not None:
        send = cluster.network.send

        def tapped(msg):
            placed.append((msg.src, msg.dst, msg.kind, msg.payload))
            return send(msg)

        cluster.network.send = tapped  # shadows the method on this instance
    cluster.sim.run_process(request)
    if placed is not None:
        del cluster.network.send
    return int(sent.value - messages), counts["hashes"] - hashes


def test_quorum_get_and_put_are_six_messages_each(counts):
    cluster = _loaded_ring(counts)
    client = cluster.client("shopper")
    # The coordinator asks all N=3 preference-list nodes, not just W or R
    # of them: 3 requests + 3 replies. A PUT hashes the key twice (intended
    # owners, then the sloppy preference list), a GET once; every replica
    # answers the GET with the same version, so there is no read repair.
    assert _cost(cluster, counts, client.put("k", "v")) == (6, 2)
    assert _cost(cluster, counts, client.get("k")) == (6, 1)


def test_cart_add_is_a_get_plus_a_put_and_view_is_a_get(counts):
    cluster = _loaded_ring(counts)
    cart = CartService(cluster, OpCartStrategy(), client=cluster.client("shopper"))
    # add = GET the blob, fold the op in, PUT it back; view = one GET. Only
    # the cart key is ever hashed, never the blob.
    assert _cost(cluster, counts, cart.add("cart", "milk")) == (12, 3)
    assert _cost(cluster, counts, cart.add("cart", "eggs")) == (12, 3)
    assert _cost(cluster, counts, cart.view("cart")) == (6, 1)


def test_an_all_alive_view_places_the_messages_no_opinion_does(counts):
    """Routing always asks a view. One that believes everyone alive must
    cost what holding no opinion costs: same messages, same order, same
    bytes — for a PUT, a GET, and both again with a replica down (sloppy
    quorum, a hint) where only reachability says so."""
    placements = []
    for routed_by_a_view in (False, True):
        cluster = _loaded_ring(counts)
        if routed_by_a_view:
            cluster.attach_gossip_membership()
        client = cluster.client(
            "shopper", view_of="node0" if routed_by_a_view else None
        )
        placed, costs = [], []
        costs.append(_cost(cluster, counts, client.put("k", "v"), placed))
        costs.append(_cost(cluster, counts, client.get("k"), placed))
        cluster.crash(cluster.ring.intended_owners("k", cluster.n)[0])
        costs.append(_cost(cluster, counts, client.put("k", "w"), placed))
        costs.append(_cost(cluster, counts, client.get("k"), placed))
        assert costs[:2] == [(6, 2), (6, 1)]
        assert any("hint_for" in payload for *_route, payload in placed)
        placements.append((costs, placed))
    assert placements[0] == placements[1]
