"""Stateful hypothesis: ``DynamoNode`` storage against a dict model.

The model keeps, per key, ``prune_dominated(old + [version])`` — the
sibling-frontier rule spelled out once, with no fast path. The node
stores versions through ``store_version`` (which skips the prune for a
key's first version) and reads them through ``versions_of``. Writes
with drawn clocks (dominating, dominated, duplicate or concurrent with
what is stored), read-modify-writes that descend the whole frontier and
cold crashes interleave freely; after every step each key's frontier,
in order, equals the model's.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dynamo import VectorClock, VersionedValue
from repro.dynamo.node import DynamoNode
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
        self.node = DynamoNode(sim, Network(sim), "n0")
        self.model = {}
        self.stores = 0

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
    def reads_are_copies(self, key):
        self.node.versions_of(key).append(VersionedValue(-1, VectorClock()))
        assert self.node.versions_of(key) == self.model.get(key, [])

    @invariant()
    def frontiers_match_the_model(self):
        for key in KEYS:
            assert self.node.versions_of(key) == self.model.get(key, [])
        assert self.node.op_seq == self.stores

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
