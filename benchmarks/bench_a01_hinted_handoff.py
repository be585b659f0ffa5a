"""Ablation A1 — hinted handoff and N/R/W vs availability under failures.

§6.1's design stance: "Dynamo always accepts a PUT to the store." The
mechanism is the sloppy quorum: fallback nodes take hinted writes for
dead owners. This ablation measures PUT availability with and without
hinted handoff while a random subset of nodes is down.
"""

from repro.analysis import Table
from repro.dynamo import DynamoCluster
from repro.dynamo.cluster import QuorumUnavailable


def run_point(hinted, crashed_count, seed, keys=30):
    cluster = DynamoCluster(
        num_nodes=8, n=3, r=2, w=2, seed=seed, hinted_handoff=hinted
    )
    rng = cluster.sim.rng.stream("crashes")
    victims = rng.sample(sorted(cluster.nodes), crashed_count)
    for victim in victims:
        cluster.crash(victim)
    client = cluster.client()
    succeeded = {"n": 0}

    def workload():
        for i in range(keys):
            try:
                yield from client.put(f"key-{i}", {"v": i})
                succeeded["n"] += 1
            except QuorumUnavailable:
                pass

    cluster.sim.run_process(workload())
    return succeeded["n"] / keys


def run_sweep():
    rows = []
    for crashed in (0, 2, 4, 5):
        with_hints = sum(run_point(True, crashed, seed) for seed in range(3)) / 3
        without = sum(run_point(False, crashed, seed) for seed in range(3)) / 3
        rows.append((crashed, with_hints, without))
    return rows


def test_a01_hinted_handoff():
    rows = run_sweep()
    table = Table(
        "A1  PUT availability (8 nodes, N=3 R=2 W=2), nodes down vs hints",
        ["nodes down", "PUT success w/ hinted handoff", "PUT success w/o"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    by_crashed = {row[0]: row for row in rows}
    # Shape: hints keep writes fully available far past where the strict
    # quorum starts failing.
    assert by_crashed[0][1] == by_crashed[0][2] == 1.0
    assert by_crashed[4][1] == 1.0
    assert by_crashed[4][2] < 1.0
    assert by_crashed[5][1] >= by_crashed[5][2]
