"""Versions cross the fabric by reference.

A write builds one ``VersionedValue``; every replica that stores it holds
that object, a GET hands the stored objects back as siblings, and each
repair path (read repair, hinted handoff, the anti-entropy push, a
SYNC_BUCKET in either direction) stores the sender's object, never a copy.
Hint delivery keeps a hint only when its owner failed: any other error
is a bug and fails fast.
"""

import pytest

from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.sim import Timeout


def _cluster():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=7)
    cluster.sim.run()  # every endpoint's start step
    return cluster


def _plant(cluster, key, version, *names):
    for name in names:
        cluster.nodes[name].store_version(key, version)


def test_a_quorum_put_stores_one_version_on_every_owner_and_a_get_returns_it():
    cluster = _cluster()
    client = cluster.client("shopper")
    clock = cluster.sim.run_process(client.put("k", {"items": ["book"]}))
    owners = cluster.ring.intended_owners("k", cluster.n)
    (written,) = cluster.nodes[owners[0]].versions_of("k")
    assert written.clock is clock
    for owner in owners:
        (stored,) = cluster.nodes[owner].versions_of("k")
        assert stored is written
    result = cluster.sim.run_process(client.get("k"))
    assert len(result.siblings) == 1 and result.siblings[0] is written
    assert result.context is clock


def test_a_gets_siblings_are_the_stored_objects():
    cluster = _cluster()
    owners = cluster.ring.intended_owners("k", cluster.n)
    left = VersionedValue("left", VectorClock({"a": 1}))
    right = VersionedValue("right", VectorClock({"b": 1}))
    _plant(cluster, "k", left, *owners)
    _plant(cluster, "k", right, *owners)
    result = cluster.sim.run_process(cluster.client().get("k"))
    assert [id(s) for s in result.siblings] == [id(left), id(right)]


def test_read_repair_stores_the_readers_sibling_itself():
    cluster = _cluster()
    owners = cluster.ring.intended_owners("k", cluster.n)
    version = VersionedValue("v", VectorClock({"a": 1}))
    _plant(cluster, "k", version, *owners[:2])
    cluster.sim.run_process(cluster.client().get("k"))
    cluster.sim.run()  # the fire-and-forget repair lands
    assert cluster.sim.metrics.counter("dynamo.read_repairs").value == 1
    (repaired,) = cluster.nodes[owners[2]].versions_of("k")
    assert repaired is version


def test_a_delivered_hint_is_the_writers_version():
    cluster = _cluster()
    client = cluster.client("shopper")
    owner = cluster.ring.intended_owners("k", cluster.n)[0]
    cluster.crash(owner)
    clock = cluster.sim.run_process(client.put("k", "v"))
    (stand_in,) = [node for node in cluster.nodes.values() if node.hints]
    (_intended, _key, hinted) = stand_in.hints[0]
    assert hinted.clock is clock and stand_in.versions_of("k") == (hinted,)
    cluster.restart(owner)
    cluster.sim.run()
    assert cluster.sim.run_process(cluster.run_handoff_round()) == 1
    assert cluster.nodes[owner].versions_of("k")[0] is hinted


def test_the_anti_entropy_push_stores_the_pushers_version():
    cluster = _cluster()
    owners = cluster.ring.intended_owners("k", cluster.n)
    version = VersionedValue("v", VectorClock({"a": 1}))
    _plant(cluster, "k", version, owners[0])
    assert cluster.sim.run_process(cluster.run_anti_entropy_round()) == 2
    for owner in owners:
        assert cluster.nodes[owner].versions_of("k")[0] is version


def test_a_sync_bucket_stores_the_shipped_and_the_replied_versions():
    """The lower-named owner initiates each pair: it ships ``shipped``
    in its SYNC_BUCKET and stores ``replied`` from the answer."""
    cluster = _cluster()
    owners = sorted(cluster.ring.intended_owners("k", cluster.n))
    shipped = VersionedValue("shipped", VectorClock({"a": 1}))
    replied = VersionedValue("replied", VectorClock({"b": 1}))
    _plant(cluster, "k", shipped, owners[0])
    _plant(cluster, "k", replied, owners[-1])
    stats = cluster.sim.run_process(cluster.run_merkle_round())
    assert stats["bucket_msgs"] > 0
    for owner in owners:
        held = cluster.nodes[owner].versions_of("k")
        assert {id(version) for version in held} == {id(shipped), id(replied)}


# ----------------------------------------------------------------------
# Hint delivery keeps a hint only for a peer failure.


def _hinted(cluster):
    """A cluster whose first owner of ``k`` is down, with the write's hint
    parked on a stand-in; returns (stand-in, owner)."""
    client = cluster.client("shopper")
    owner = cluster.ring.intended_owners("k", cluster.n)[0]
    cluster.crash(owner)
    cluster.sim.run_process(client.put("k", "v"))
    (stand_in,) = [node for node in cluster.nodes.values() if node.hints]
    cluster.restart(owner)
    cluster.sim.run()
    return stand_in, owner


def test_a_hint_whose_owner_times_out_is_kept():
    cluster = _cluster()
    stand_in, owner = _hinted(cluster)

    def stuck(_endpoint, _msg):
        yield Timeout(10.0)
        return {"stored": True}

    cluster.nodes[owner].endpoint.register("PUT", stuck)
    hints = list(stand_in.hints)
    assert cluster.sim.run_process(stand_in.deliver_hints()) == 0
    assert stand_in.hints == hints


def test_a_programming_error_in_hint_delivery_propagates():
    cluster = _cluster()
    stand_in, _owner = _hinted(cluster)

    def broken(*_args, **_kwargs):
        raise TypeError("malformed hint payload")
        yield  # a generator, like Endpoint.call

    stand_in.endpoint.call = broken
    with pytest.raises(TypeError, match="malformed hint payload"):
        cluster.sim.run_process(stand_in.deliver_hints())

