"""Dynamo end-to-end: quorums, siblings, partitions, hinted handoff."""

import pytest

from repro.dynamo import DynamoCluster, VectorClock
from repro.dynamo.cluster import QuorumUnavailable
from repro.errors import BreakerOpenError, CrashedError, SimulationError
from repro.resilience import BreakerConfig
from repro.sim import Timeout


def test_bad_quorum_config_rejected():
    with pytest.raises(SimulationError):
        DynamoCluster(num_nodes=3, n=4, r=2, w=2)
    with pytest.raises(SimulationError):
        DynamoCluster(num_nodes=3, n=3, r=0, w=2)


def test_put_get_roundtrip():
    cluster = DynamoCluster(seed=1)
    client = cluster.client()

    def job():
        yield from client.put("cart:1", {"items": ["book"]})
        result = yield from client.get("cart:1")
        return result

    result = cluster.sim.run_process(job())
    assert result.values == [{"items": ["book"]}]
    assert not result.conflicted


def test_get_missing_key_empty():
    cluster = DynamoCluster(seed=1)
    client = cluster.client()

    def job():
        result = yield from client.get("nothing")
        return result

    result = cluster.sim.run_process(job())
    assert result.values == []
    assert result.context == VectorClock()


def test_sequential_puts_with_context_supersede():
    cluster = DynamoCluster(seed=1)
    client = cluster.client()

    def job():
        yield from client.put("k", "v1")
        first = yield from client.get("k")
        yield from client.put("k", "v2", context=first.context)
        second = yield from client.get("k")
        return second

    result = cluster.sim.run_process(job())
    assert result.values == ["v2"]


def test_blind_puts_from_two_clients_make_siblings():
    """PUTs without covering contexts are concurrent: a later GET returns
    both siblings for the application to reconcile (§6.1)."""
    cluster = DynamoCluster(seed=1)
    alice = cluster.client("alice")
    bob = cluster.client("bob")

    def job():
        yield from alice.put("k", "from-alice")
        yield from bob.put("k", "from-bob")
        result = yield from alice.get("k")
        return result

    result = cluster.sim.run_process(job())
    assert result.conflicted
    assert set(result.values) == {"from-alice", "from-bob"}


def test_reconciling_put_collapses_siblings():
    cluster = DynamoCluster(seed=1)
    alice = cluster.client("alice")
    bob = cluster.client("bob")

    def job():
        yield from alice.put("k", "a")
        yield from bob.put("k", "b")
        conflicted = yield from alice.get("k")
        assert conflicted.conflicted
        yield from alice.put("k", "merged", context=conflicted.context)
        final = yield from alice.get("k")
        return final

    result = cluster.sim.run_process(job())
    assert result.values == ["merged"]


def test_put_always_accepted_with_nodes_down():
    """Availability over consistency: N-1 intended owners dead, the PUT
    still lands (hinted to fallbacks) and the data is GETtable."""
    cluster = DynamoCluster(num_nodes=6, n=3, r=1, w=2, seed=2)
    client = cluster.client()
    intended = cluster.ring.intended_owners("k", 3)
    for node in intended[:2]:
        cluster.crash(node)

    def job():
        yield from client.put("k", "survives")
        result = yield from client.get("k")
        return result

    result = cluster.sim.run_process(job())
    assert "survives" in result.values


def test_put_fails_without_hinted_handoff_when_owners_down():
    cluster = DynamoCluster(num_nodes=6, n=3, r=2, w=3, seed=2, hinted_handoff=False)
    client = cluster.client()
    intended = cluster.ring.intended_owners("k", 3)
    for node in intended[:2]:
        cluster.crash(node)

    def job():
        try:
            yield from client.put("k", "v")
        except QuorumUnavailable:
            return "unavailable"
        return "stored"

    assert cluster.sim.run_process(job()) == "unavailable"


def test_hinted_handoff_delivers_home():
    cluster = DynamoCluster(num_nodes=6, n=3, r=2, w=2, seed=2)
    client = cluster.client()
    intended = cluster.ring.intended_owners("k", 3)
    cluster.crash(intended[0])

    def job():
        yield from client.put("k", "v")
        cluster.restart(intended[0])
        yield Timeout(0.1)
        delivered = yield from cluster.run_handoff_round()
        return delivered

    delivered = cluster.sim.run_process(job())
    assert delivered >= 1
    home = cluster.nodes[intended[0]]
    assert any(v.value == "v" for v in home.versions_of("k"))


def test_get_unavailable_when_r_unreachable():
    cluster = DynamoCluster(num_nodes=3, n=3, r=3, w=1, seed=2)
    client = cluster.client()
    cluster.crash("node0")

    def job():
        try:
            yield from client.get("k")
        except QuorumUnavailable:
            return "unavailable"
        return "ok"

    assert cluster.sim.run_process(job()) == "unavailable"


# ----------------------------------------------------------------------
# The fan-out's failure rule: one process per replica, every one waited
# for; a replica that timed out or answered with an error is dropped and
# R/W judged on the rest; anything else that kills a child is raised,
# the first in preference order — never mistaken for a short quorum.


def _owners(cluster, key="k"):
    return cluster.ring.intended_owners(key, cluster.n)


def _make_slow(cluster, node_name, verb, seconds=1.0):
    """``node_name`` is up and reachable but sits on ``verb`` past the
    client's two 50 ms attempts."""
    def slow(_endpoint, _msg):
        yield Timeout(seconds)
        return {"versions": [], "stored": True}

    cluster.nodes[node_name].endpoint.register(verb, slow)


def test_a_replica_timing_out_is_dropped_and_quorum_judged_on_the_rest():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=1)
    client = cluster.client("shopper")
    cluster.sim.run_process(client.put("k", "v"))
    _make_slow(cluster, _owners(cluster)[0], "GET")
    _make_slow(cluster, _owners(cluster)[0], "PUT")
    started = cluster.sim.now

    def job():
        result = yield from client.get("k")
        got_at = cluster.sim.now
        yield from client.put("k", "w", context=result.context)
        return result.values, got_at, cluster.sim.now

    values, got_at, put_at = cluster.sim.run_process(job())
    assert values == ["v"]
    # Two answers were in after 2 ms; the coordinator still waited out
    # the third replica's two attempts before judging R, then W.
    assert got_at == pytest.approx(started + 0.1)
    assert put_at == pytest.approx(started + 0.2)
    assert cluster.sim.metrics.counter("rpc.shopper.retries").value == 4


def test_too_few_answers_is_a_quorum_error_once_every_replica_settled():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=1)
    client = cluster.client("shopper")
    first, second, _third = _owners(cluster)
    _make_slow(cluster, first, "GET")

    def failing(_endpoint, _msg):
        raise ValueError("disk on fire")

    cluster.nodes[second].endpoint.register("GET", failing)

    def job():
        with pytest.raises(QuorumUnavailable, match="1 < R=2"):
            yield from client.get("k")
        return cluster.sim.now

    # The remote error came back after 2 ms; the timeout took 100.
    assert cluster.sim.run_process(job()) == pytest.approx(0.1)


def test_coordinator_stopped_mid_get_is_a_crash_not_a_short_quorum():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=1)
    client = cluster.client("shopper")
    _make_slow(cluster, _owners(cluster)[1], "GET")
    cluster.sim.schedule(0.01, client.endpoint.stop, "killed")

    def job():
        with pytest.raises(CrashedError, match="shopper stopped: killed"):
            yield from client.get("k")
        return cluster.sim.now

    # R=2 answers were in after 2 ms and the coordinator neither returned
    # on them nor gave up: it was told of the crash when its last child
    # died of it.
    assert cluster.sim.run_process(job()) == pytest.approx(0.01)


def test_a_child_that_fails_at_once_is_raised_only_after_the_others_settle():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=1)
    client = cluster.client("shopper")
    client.endpoint.use_breaker(BreakerConfig(failure_threshold=1))
    first, second, _third = _owners(cluster)
    for dst in (second, first):  # tripped out of preference order
        client.endpoint._breakers.for_dst(dst).record_failure()

    def job():
        with pytest.raises(BreakerOpenError) as caught:
            yield from client.put("k", "v")
        return caught.value.dst, cluster.sim.now

    # Both short-circuited children died in their first step; the third
    # replica stored the write 2 ms later, and only then did the PUT
    # fail — with the first failure in preference order.
    assert cluster.sim.run_process(job()) == (first, pytest.approx(0.002))
    assert cluster.sim.metrics.counter("net.sent").value == 2


def test_an_empty_preference_list_costs_no_message_and_no_step():
    cluster = DynamoCluster(num_nodes=3, n=3, r=1, w=1, seed=1)
    client = cluster.client("shopper")
    cluster.sim.run()  # every endpoint's start step
    scatter = client._scatter_pairs([], "GET")
    with pytest.raises(StopIteration) as stopped:
        next(scatter)
    assert stopped.value.value == []
    for name in list(cluster.nodes):
        cluster.crash(name)
    steps = cluster.sim.steps

    def job():
        with pytest.raises(QuorumUnavailable, match="0 < R=1"):
            yield from client.get("k")
        with pytest.raises(QuorumUnavailable, match="0 < W=1"):
            yield from client.put("k", "v")

    cluster.sim.run_process(job())
    assert cluster.sim.steps == steps + 1  # the job's own start step
    assert cluster.sim.metrics.counter("net.sent").value == 0


def test_one_named_process_per_replica_goes_through_spawn():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=1)
    client = cluster.client("shopper")
    spawn, spawned = cluster.sim.spawn, []

    def recording_spawn(gen, name=None):
        spawned.append(spawn(gen, name=name))
        return spawned[-1]

    cluster.sim.spawn = recording_spawn

    def job():
        yield from client.put("k", "v")
        yield from client.get("k")

    cluster.sim.run_process(job(), name="job")
    owners = _owners(cluster)
    assert [proc.name for proc in spawned] == (
        ["job"]
        + [f"shopper.PUT.{node}" for node in owners]
        + [f"shopper.GET.{node}" for node in owners]
    )
    assert all(type(proc._name) is tuple for proc in spawned[1:])
    assert not any(proc.alive for proc in spawned)
