"""Ablation A7 — snapshot-seeded Dynamo rejoin vs whole-keyspace resync.

A cold-crashed node has two ways home: restore nothing and let Merkle
anti-entropy drag every version back across the network, or seed from
the local snapshot and let anti-entropy close only the post-cut diff.
Correctness is identical (§6's convergence does not care); the ablation
measures what the checkpoint buys — versions moved over the wire and
repair rounds until the ring agrees.
"""

from repro.analysis import Table
from repro.dynamo.cluster import DynamoCluster
from repro.sim import Timeout


def run_case(snapshot, keys=200, seed=5, victim="node3"):
    cluster = DynamoCluster(
        num_nodes=8, seed=seed,
        snapshot_cadence=1.0 if snapshot else None,
    )
    client = cluster.client("bench")

    def job():
        for i in range(keys):
            yield from client.put(f"k{i}", i)
            yield Timeout(0.01)
        yield Timeout(2.0)  # let the last checkpoint land
        lost = cluster.cold_crash(victim)
        yield Timeout(0.5)
        restart = yield from cluster.cold_restart(victim)
        repair_start = cluster.sim.now
        moved = rounds = 0
        converged = False
        while rounds < 20 and not converged:
            yield from cluster.run_handoff_round()
            stats = yield from cluster.run_merkle_round()
            moved += stats["versions_moved"]
            rounds += 1
            converged = all(cluster.converged_on(f"k{i}") for i in range(keys))
        return {
            "policy": "snapshot" if snapshot else "no snapshot",
            "versions_lost": lost,
            "seeded_from_disk": restart["seeded_versions"],
            "recovery_ms": restart["recovery_time"] * 1e3,
            "versions_over_wire": moved,
            "repair_rounds": rounds,
            "time_to_converged": cluster.sim.now - repair_start,
            "converged": converged,
        }

    return cluster.sim.run_process(job())


def run_sweep():
    return [run_case(snapshot) for snapshot in (False, True)]


def test_a07_snapshot_recovery():
    rows = run_sweep()
    table = Table(
        "A7  Dynamo rejoin: snapshot seed vs whole-keyspace resync",
        ["policy", "versions lost", "seeded from disk", "recovery ms",
         "versions over wire", "repair rounds", "converged"],
    )
    for row in rows:
        table.add_row(
            row["policy"], row["versions_lost"], row["seeded_from_disk"],
            round(row["recovery_ms"], 2), row["versions_over_wire"],
            row["repair_rounds"], row["converged"],
        )
    table.print()
    full, seeded = rows
    # Both converge — the snapshot changes cost, not correctness.
    assert full["converged"] and seeded["converged"]
    assert full["seeded_from_disk"] == 0
    assert seeded["seeded_from_disk"] > 0.5 * seeded["versions_lost"]
    # The wire bill: seeding locally moves far fewer versions to repair.
    assert seeded["versions_over_wire"] < 0.5 * full["versions_over_wire"]
