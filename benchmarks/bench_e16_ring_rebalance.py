"""E16 — Elastic ring rebalance: cost tracks moved ranges, not keyspace.

The consistent-hashing bargain behind Dynamo's elasticity (§6): when a
node joins or leaves, only the arcs whose owner actually changed move —
everything else stays put. The claim, measured: versions transferred by
a join are predicted by the ring geometry alone (the fraction of the
hash space the joiner's vnodes capture), the moved *share* of the store
stays flat as the keyspace grows, and the transfer is always a small
fraction of the ``n * keys`` a naive full re-replication would ship.

Run with ``pytest benchmarks/bench_e16_ring_rebalance.py -s`` to print the
table.
"""

from repro.analysis import Table
from repro.dynamo.cluster import DynamoCluster
from repro.dynamo.ring import RING_SIZE, moved_ranges
from repro.dynamo.versions import VectorClock, VersionedValue
from repro.sim import Simulator


def run_case(num_keys, seed=11):
    """Preload ``num_keys`` keys onto their intended owners, then join a
    node and decommission one, measuring what actually moved.

    The preload writes exactly one version per key straight to each of
    its ``n`` intended owners (no sloppy placements), so the transfer
    counts are pure geometry: the joiner pulls precisely the keys whose
    hash lands in an arc it gained, and the leaver pushes precisely the
    keys the incoming owners lack.
    """
    sim = Simulator(seed=seed)
    cluster = DynamoCluster(num_nodes=8, sim=sim)
    for i in range(num_keys):
        key = f"k{i}"
        clock = VectorClock({"loader": 1})
        for owner in cluster.ring.intended_owners(key, cluster.n):
            cluster.nodes[owner].store_version(key, VersionedValue(i, clock))

    before = cluster.ring.clone()
    join_stats = sim.run_process(cluster.join("node8"))
    arcs = moved_ranges(before, cluster.ring, cluster.n)
    gained_share = sum(
        (arc.end - arc.start) % RING_SIZE
        for arc in arcs if "node8" in arc.gained
    ) / RING_SIZE
    decom_stats = sim.run_process(cluster.decommission("node0"))

    return {
        "keys": num_keys,
        "moved_arcs": join_stats["moved_ranges"],
        "gained_share": gained_share,
        "predicted_join": gained_share * num_keys,
        "join_moved": join_stats["versions_moved"],
        "join_msgs": join_stats["digest_msgs"] + join_stats["bucket_msgs"],
        "decom_moved": decom_stats["versions_moved"],
        "total_replicas": cluster.n * num_keys,
    }


def run_sweep():
    """The claim table: quadrupling the keyspace, same reshape."""
    return [run_case(num_keys) for num_keys in (200, 400, 800)]


def _check_shapes(rows):
    for row in rows:
        # Geometry predicts the transfer: the joiner pulled what its
        # gained arcs cover, within sampling noise of the key hashes.
        assert abs(row["join_moved"] - row["predicted_join"]) <= (
            0.20 * row["predicted_join"]
        ), (row["join_moved"], row["predicted_join"])
        # Far cheaper than re-replicating the store.
        assert row["join_moved"] < 0.6 * row["total_replicas"], row
        assert row["decom_moved"] < 0.6 * row["total_replicas"], row
    # The moved *share* is flat in keyspace size: cost is proportional to
    # the moved ranges' coverage, not to how many keys exist overall.
    shares = [row["join_moved"] / row["keys"] for row in rows]
    assert max(shares) <= 1.4 * min(shares), shares


def test_e16_ring_rebalance():
    rows = run_sweep()
    table = Table(
        "E16  Elastic rebalance: versions moved track the moved arcs",
        ["keys", "moved arcs", "gained share", "predicted join",
         "join moved", "join moved/key", "decom moved", "n*keys"],
    )
    for row in rows:
        table.add_row(
            row["keys"], row["moved_arcs"],
            f"{row['gained_share']:.1%}",
            round(row["predicted_join"], 1), row["join_moved"],
            round(row["join_moved"] / row["keys"], 3),
            row["decom_moved"], row["total_replicas"],
        )
    table.print()
    _check_shapes(rows)
