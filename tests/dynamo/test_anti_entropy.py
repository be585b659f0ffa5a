"""Node-to-node anti-entropy: replicas converge without client reads."""

from repro.dynamo import DynamoCluster
from repro.net import (
    FixedLatency,
    LinkConfig,
    Site,
    Topology,
    TopologyNetwork,
    WanLink,
)
from repro.sim import Simulator, Timeout


def test_anti_entropy_heals_a_missed_write():
    cluster = DynamoCluster(num_nodes=5, n=3, r=1, w=1, seed=19)
    client = cluster.client()
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        cluster.crash(owners[1])
        yield from client.put("k", "v1")
        cluster.restart(owners[1])
        yield Timeout(0.05)
        pushed = yield from cluster.run_anti_entropy_round()
        yield Timeout(0.05)
        return pushed

    pushed = cluster.sim.run_process(scenario())
    assert pushed >= 1
    assert any(v.value == "v1" for v in cluster.nodes[owners[1]].versions_of("k"))
    assert cluster.converged_on("k")


def test_anti_entropy_idempotent_once_converged():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=3, seed=19)
    client = cluster.client()

    def scenario():
        yield from client.put("k", "v1")
        first = yield from cluster.run_anti_entropy_round()
        second = yield from cluster.run_anti_entropy_round()
        return first, second

    _first, second = cluster.sim.run_process(scenario())
    assert second == 0
    assert cluster.converged_on("k")


def test_anti_entropy_spreads_siblings_everywhere():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=23)
    alice = cluster.client("alice")
    bob = cluster.client("bob")
    owners = cluster.ring.intended_owners("k", 3)

    def scenario():
        yield from alice.put("k", "a")
        yield from bob.put("k", "b")
        for _ in range(2):
            yield from cluster.run_anti_entropy_round()
            yield Timeout(0.05)
        return [
            {v.value for v in cluster.nodes[o].versions_of("k")} for o in owners
        ]

    frontiers = cluster.sim.run_process(scenario())
    for values in frontiers:
        assert values == {"a", "b"}
    assert cluster.converged_on("k")


def test_anti_entropy_survives_wan_cut_without_starving_intra_site_peers():
    """A WAN cut is a fault overlay, not a partition: cut-off peers still
    look reachable, so every push to them times out. The round must mark
    them unresponsive after the first timeout (counting
    ``dynamo.anti_entropy_errors``) and keep syncing intra-site peers
    instead of burning the retry budget per key."""
    sim = Simulator(seed=31)
    lan = FixedLatency(0.001)
    topology = Topology(
        [Site("a", lan=lan), Site("b", lan=lan)],
        default_wan=WanLink(FixedLatency(0.02)),
    )
    network = TopologyNetwork(
        sim, topology, default_link=LinkConfig(latency=lan)
    )
    cluster = DynamoCluster(
        num_nodes=6, n=3, r=1, w=1, sim=sim, network=network,
    )
    remote = "node5"
    topology.place(remote, "b")
    topology.place_all((n for n in cluster.nodes if n != remote), "a")
    client = cluster.client("writer")
    topology.place("writer", "a")

    # One key whose owners are all intra-site (victim misses the write),
    # one key owned by the cut-off remote node (remote misses it).
    local_key = next(
        k for k in (f"lk{i}" for i in range(100))
        if remote not in cluster.ring.intended_owners(k, 3)
    )
    remote_key = next(
        k for k in (f"rk{i}" for i in range(100))
        if remote in cluster.ring.intended_owners(k, 3)
        and cluster.ring.intended_owners(k, 3)[0] != remote
    )
    victim = cluster.ring.intended_owners(local_key, 3)[1]

    def scenario():
        cluster.crash(victim)
        cluster.crash(remote)
        yield from client.put(local_key, "lv")
        yield from client.put(remote_key, "rv")
        cluster.restart(victim)
        cluster.restart(remote)
        yield Timeout(0.05)
        faults = network.cut_sites("a", "b")
        start = sim.now
        yield from cluster.run_anti_entropy_round()
        cut_round_cost = sim.now - start
        network.heal_sites(faults)
        yield from cluster.run_anti_entropy_round()
        yield Timeout(0.05)
        return cut_round_cost

    cut_round_cost = sim.run_process(scenario())
    # Intra-site repair proceeded under the cut, cross-site pushes were
    # counted as errors, and the round's timeout burn stayed bounded by
    # the per-source skip set (one failed push per source, not per key).
    assert any(
        v.value == "lv" for v in cluster.nodes[victim].versions_of(local_key)
    )
    assert sim.metrics.counter("dynamo.anti_entropy_errors").value >= 1
    assert cut_round_cost < 5.0
    # After the heal the next round converges the cut-off site too.
    assert cluster.converged_on(remote_key)
    assert cluster.converged_on(local_key)
