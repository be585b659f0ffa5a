"""Differential test: ``DynamoCluster._exchange`` (the one Merkle pair
primitive) against the two bodies it replaced, frozen in
``reference_merkle.py``.

A *scenario* is plain data drawn from a seed: PUTs placed under random
partitions (siblings, hints, stale replicas), versions planted on single
nodes, then one fault — none, a peer crashed beforehand, a peer whose
links drop everything (it times out; ``reachable()`` cannot see that) or
every other message (DIGESTS answered, a SYNC_BUCKET lost), a peer
crashing mid-round, or a rumor that a live peer is dead — and a
repair script: whole-ring rounds, or a join plus a decommission, whose
range transfers go through ``_range_sync``. The scenario is played on two
clusters, one with the frozen bodies bound over the production methods;
both must end with the same stores, returned stats, counters
(``net.sent``, ``dynamo.*``, ``rpc.*.retries`` …), clock and ``sim.steps``.
"""

import random
from functools import partial

import pytest

from repro.cluster import DEAD
from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.dynamo.cluster import QuorumUnavailable
from repro.net import LinkConfig

from tests.dynamo import reference_merkle

FAULTS = ("none", "crashed", "times-out", "flaky", "crashes-mid-round",
          "rumored-dead")
SCRIPTS = ("whole-ring", "range-scoped")


def _diverge(cluster, rng):
    """Random PUTs under random partitions, then planted versions."""
    names = sorted(cluster.nodes)
    client = cluster.client("writer")

    def put(key, value):
        try:
            current = yield from client.get(key)
            yield from client.put(key, value, current.context)
        except QuorumUnavailable:
            pass

    for episode in range(4):
        side = rng.sample(names, rng.randint(2, len(names) - 1))
        cluster.network.partition([side + ["writer"]])
        for _ in range(rng.randint(3, 8)):
            key = f"k{rng.randrange(24)}"
            cluster.sim.run_process(put(key, f"v{episode}.{rng.randrange(100)}"))
        cluster.network.heal()
    for i in range(rng.randint(5, 20)):
        version = VersionedValue(f"planted{i}", VectorClock({f"p{i}": 1}))
        cluster.nodes[rng.choice(names)].store_version(
            f"k{rng.randrange(40)}", version
        )


def _inject(cluster, rng, fault):
    names = sorted(cluster.nodes)
    victim = rng.choice(names)
    if fault == "crashed":
        cluster.crash(victim)
    elif fault in ("times-out", "flaky"):
        link = LinkConfig(loss_probability=1.0 if fault == "times-out" else 0.5)
        for name in names:
            if name != victim:
                cluster.network.set_link(name, victim, link)
    elif fault == "crashes-mid-round":
        # A pair exchange is a few 2 ms round trips: this lands inside one.
        cluster.sim.schedule(rng.uniform(0.001, 0.03), cluster.crash, victim)
    elif fault == "rumored-dead":
        cluster.attach_gossip_membership()
        observer = rng.choice([name for name in names if name != victim])
        cluster.view_of(observer).apply(victim, DEAD, 0)


def _repair(cluster, rng, script):
    """Run the script; every stats dict it returned, in order."""
    run, buckets = cluster.sim.run_process, rng.choice([1, 4, 16])
    if script == "whole-ring":
        return [run(cluster.run_merkle_round(buckets)) for _ in range(3)]
    leaver = rng.choice(sorted(cluster.nodes))
    return [
        run(cluster.join("joiner", buckets)),
        run(cluster.decommission(leaver, buckets)),
        run(cluster.run_merkle_round(buckets)),
    ]


def _play(seed, fault, script, reference):
    rng = random.Random(f"{seed}/{fault}/{script}")
    cluster = DynamoCluster(num_nodes=6, n=3, r=2, w=2, seed=seed)
    if reference:
        cluster.run_merkle_round = partial(reference_merkle.run_merkle_round, cluster)
        cluster._range_sync = partial(reference_merkle._range_sync, cluster)
    _diverge(cluster, rng)
    _inject(cluster, rng, fault)
    stats = _repair(cluster, rng, script)
    stores = {
        name: {
            key: sorted((repr(v.value), sorted(v.clock.counters.items()))
                        for v in versions)
            for key, versions in sorted(node.store.items())
        }
        for name, node in sorted(cluster.nodes.items())
    }
    sim = cluster.sim
    return stats, stores, sim.metrics.counters(), sim.now, sim.steps


@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("seed", range(4))
def test_exchange_matches_the_frozen_pair_bodies(seed, fault, script):
    names = ("stats", "stores", "counters", "now", "steps")
    expected = _play(seed, fault, script, reference=True)
    actual = _play(seed, fault, script, reference=False)
    for name, want, got in zip(names, expected, actual):
        assert got == want, name


def test_the_scenarios_reach_every_branch_of_the_exchange():
    """The generator is only a witness if it drives what it compares:
    divergent buckets, failed peers, and both kinds of scope."""
    moved = errors = ranged = 0
    for fault in FAULTS:
        for script in SCRIPTS:
            stats, _stores, counters, _now, _steps = _play(0, fault, script, False)
            moved += sum(s["versions_moved"] for s in stats)
            errors += counters.get("dynamo.anti_entropy_errors", 0)
            ranged += sum(s.get("moved_ranges", 0) for s in stats)
    assert moved > 0 and errors > 0 and ranged > 0
