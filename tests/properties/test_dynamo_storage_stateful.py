"""Stateful hypothesis: ``DynamoNode`` storage against a dict model.

The model keeps, per key, ``prune_dominated(old + [version])`` — the
sibling-frontier rule spelled out once, with no fast path. The node
stores versions through ``store_version`` (which skips the prune for a
key's first version) and reads them through ``versions_of``. Writes
with drawn clocks (dominating, dominated, duplicate or concurrent with
what is stored), read-modify-writes that descend the whole frontier and
cold crashes interleave freely; after every step each key's frontier,
in order, equals the model's.

A read is the stored frontier itself, an immutable tuple: nothing done
with a read changes the store, and no later write or crash changes a
read already handed out. The plain tests below hold checkpoints and
rejoins to the same sharing.

Versions are shared too: a replica stores the object it was sent, so
one version may sit under several keys and in several reads at once,
and its clock is hashed where any of them is compared (read repair,
convergence checks). No step may change a clock once built: every
clock whose hash is cached still hashes to its current counters.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dynamo import VectorClock, VersionedValue
from repro.dynamo.node import DynamoNode
from repro.dynamo.ring import HashRing, RingPositions
from repro.dynamo.versions import prune_dominated
from repro.net import Network
from repro.sim import Simulator

KEYS = ["k0", "k1", "k2"]
WRITERS = ["a", "b", "c"]
CLOCKS = st.dictionaries(
    st.sampled_from(WRITERS), st.integers(min_value=0, max_value=3), max_size=3
)
VALUES = st.integers(min_value=0, max_value=5)


class DynamoStorageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        sim = Simulator()
        self.node = DynamoNode(sim, Network(sim), "n0", HashRing(["n0"]), RingPositions(), 1)
        self.model = {}
        self.stores = 0
        self.reads = []  # (read, what the model held when it was taken)

    def _expected(self, key):
        return tuple(self.model.get(key, []))

    def _store(self, key, version):
        self.node.store_version(key, version)
        self.model[key] = prune_dominated(self.model.get(key, []) + [version])
        self.stores += 1

    @rule(key=st.sampled_from(KEYS), counters=CLOCKS, value=VALUES)
    def write(self, key, counters, value):
        self._store(key, VersionedValue(value, VectorClock(counters)))

    @rule(key=st.sampled_from(KEYS), writer=st.sampled_from(WRITERS), value=VALUES)
    def read_modify_write(self, key, writer, value):
        """The §6.1 discipline: the new clock descends every sibling read."""
        context = VectorClock()
        for version in self.node.versions_of(key):
            context = context.merge(version.clock)
        counters = dict(context.counters)
        counters[writer] = counters.get(writer, 0) + 1
        self._store(key, VersionedValue(value, VectorClock(counters)))
        assert len(self.node.versions_of(key)) == 1

    @rule()
    def cold_crash(self):
        lost = self.node.cold_crash()
        assert lost == sum(len(versions) for versions in self.model.values())
        self.model = {}
        self.stores = 0

    @rule(key=st.sampled_from(KEYS))
    def reads_cannot_change_the_store(self, key):
        read = self.node.versions_of(key)
        assert type(read) is tuple and read == self._expected(key)
        stray = VersionedValue(-1, VectorClock())
        with pytest.raises(TypeError):
            read[:0] = [stray]
        read += (stray,)  # a new tuple; the stored one is untouched
        assert self.node.versions_of(key) == self._expected(key)
        self.reads.append((self.node.versions_of(key), self._expected(key)))
        for version in read:
            hash(version.clock)  # as read repair and convergence checks do

    @rule(source=st.sampled_from(KEYS), key=st.sampled_from(KEYS))
    def store_a_version_held_elsewhere(self, source, key):
        """A replica stores the sender's object, not a copy."""
        for version in self.node.versions_of(source):
            self._store(key, version)

    @invariant()
    def frontiers_match_the_model(self):
        for key in KEYS:
            assert self.node.versions_of(key) == self._expected(key)
        assert self.node.op_seq == self.stores

    @invariant()
    def earlier_reads_are_unchanged(self):
        for read, expected in self.reads:
            assert read == expected

    @invariant()
    def no_stored_clock_changed_after_it_was_hashed(self):
        for versions in self.node.store.values():
            for version in versions:
                cached = version.clock._hash
                if cached is not None:
                    assert cached == hash(tuple(sorted(version.clock.counters.items())))

    @invariant()
    def siblings_are_pairwise_concurrent(self):
        for versions in self.node.store.values():
            for i, mine in enumerate(versions):
                for other in versions[i + 1:]:
                    assert mine.clock.concurrent_with(other.clock)


TestDynamoStorageMachine = DynamoStorageMachine.TestCase
TestDynamoStorageMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def _checkpointed_node():
    """A node whose checkpoint covers three keys, one with two siblings."""
    sim = Simulator()
    node = DynamoNode(sim, Network(sim), "n0", HashRing(["n0"]), RingPositions(), 1)
    node.enable_snapshots(cadence=0.5)
    for i, key in enumerate(KEYS):
        node.store_version(key, VersionedValue(i, VectorClock({"a": 1})))
    node.store_version("k0", VersionedValue(9, VectorClock({"b": 1})))
    sim.run(until=2.0)
    assert node.snapshots.peek_materialize().lsn == node.op_seq
    return sim, node


def test_a_checkpoint_shares_the_stores_frontiers():
    _sim, node = _checkpointed_node()
    checkpointed = node.snapshots.peek_materialize().state
    assert checkpointed.keys() == node.store.keys()
    assert all(checkpointed[key] is node.store[key] for key in node.store)
    assert len(checkpointed["k0"]) == 2
    # A later write replaces the store's frontier; the checkpoint keeps its own.
    before = node.store["k1"]
    node.store_version("k1", VersionedValue(7, VectorClock({"a": 2})))
    assert node.snapshots.peek_materialize().state["k1"] is before
    assert node.versions_of("k1") == (VersionedValue(7, VectorClock({"a": 2})),)


def test_cold_restart_seeds_exactly_the_snapshots_frontiers():
    sim, node = _checkpointed_node()
    snapshot = node.snapshots.peek_materialize().state
    node.store_version("late", VersionedValue(5, VectorClock({"c": 1})))
    node.store_version("k2", VersionedValue(6, VectorClock({"a": 2})))
    node.cold_crash()
    rejoin = sim.run_process(node.cold_restart())
    assert node.store == snapshot and node.store is not snapshot
    assert all(node.store[key] is snapshot[key] for key in snapshot)
    assert rejoin["seeded_versions"] == sum(map(len, snapshot.values())) == 4
