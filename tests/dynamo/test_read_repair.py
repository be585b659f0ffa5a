"""Read repair: a GET heals stale replicas in the background."""

from repro.dynamo import DynamoCluster
from repro.sim import Timeout


def test_stale_replica_repaired_by_get():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=13)
    client = cluster.client()
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        # First write reaches everyone.
        yield from client.put("k", "v1")
        first = yield from client.get("k")
        # One owner misses the second write (it is down for a moment).
        cluster.crash(owners[2])
        yield from client.put("k", "v2", context=first.context)
        cluster.restart(owners[2])
        yield Timeout(0.05)
        # A read touches the stale node (R spans it eventually); repair
        # fires as a side effect.
        yield from client.get("k")
        yield Timeout(0.05)
        return [v.value for v in cluster.nodes[owners[2]].versions_of("k")]

    values = cluster.sim.run_process(scenario())
    repaired = cluster.sim.metrics.counter("dynamo.read_repairs").value
    # The stale node either already had v2 (hint path) or read repair
    # delivered it; either way it now serves the latest version.
    assert "v2" in values
    assert repaired >= 0  # metric exists; >0 when the stale path was hit


def test_read_repair_converges_siblings_to_all_replicas():
    cluster = DynamoCluster(num_nodes=5, n=3, r=3, w=3, seed=29)
    alice = cluster.client("alice")
    bob = cluster.client("bob")
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        yield from alice.put("k", "a")
        yield from bob.put("k", "b")  # concurrent sibling
        yield from alice.get("k")     # sees both; repairs anyone missing one
        yield Timeout(0.05)
        coverage = []
        for owner in owners:
            values = {v.value for v in cluster.nodes[owner].versions_of("k")}
            coverage.append(values)
        return coverage

    coverage = cluster.sim.run_process(scenario())
    for values in coverage:
        assert values == {"a", "b"}
