"""Stateful hypothesis: ``HashRing`` against a brute-force model.

The ring answers strict-owner lookups from a per-ring-state table that is
built lazily, dropped by every reshape and never shared with a clone.
The model has no state to get wrong: it sorts every vnode position of the
current member set and walks. Lookups and reshapes interleave freely, on
the live ring and on clones of it, so a table that outlives its ring
state — or leaks between a ring and its clone — shows up as a mismatch.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.dynamo import HashRing, moved_ranges
from repro.dynamo.ring import RING_SIZE, ring_hash

POOL = [f"n{i}" for i in range(7)]
VNODES = 4
KEYS = [f"key-{i}" for i in range(40)]
SIZES = st.integers(min_value=1, max_value=4)
MAX_RINGS = 4
# Which ring a rule acts on, folded onto however many exist so far.
WHICH = st.integers(min_value=0, max_value=MAX_RINGS - 1)

VNODE_POSITIONS = {
    node: [(ring_hash(f"{node}#{v}"), node) for v in range(VNODES)] for node in POOL
}


def model_positions(members):
    return sorted(entry for node in members for entry in VNODE_POSITIONS[node])


def model_owners(members, position, n, alive=None):
    """The first ``n`` distinct (live) nodes strictly clockwise of
    ``position``, found the slow way."""
    positions = model_positions(members)
    after = [entry for entry in positions if entry[0] > position]
    before = [entry for entry in positions if entry[0] <= position]
    owners = []
    for _hash, node in after + before:
        if node in owners or (alive is not None and not alive(node)):
            continue
        owners.append(node)
        if len(owners) == n:
            break
    return owners


def probe_positions(*member_sets):
    """Every vnode position and its two neighbours, plus the seam."""
    probes = {0, 1, RING_SIZE - 1, RING_SIZE // 2}
    for members in member_sets:
        for position, _node in model_positions(members):
            probes.update(
                {(position - 1) % RING_SIZE, position, (position + 1) % RING_SIZE}
            )
    return sorted(probes)


class RingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # rings[0] is the live ring; the rest are clones, reshaped on
        # their own. Each is paired with the member list it should have.
        self.rings = [HashRing(POOL[:3], vnodes=VNODES)]
        self.members = [list(POOL[:3])]

    @rule(which=WHICH, name=st.sampled_from(POOL))
    def toggle_member(self, which, name):
        which %= len(self.rings)
        ring, members = self.rings[which], self.members[which]
        if name in members:
            if len(members) == 1:
                return
            ring.remove_node(name)
            members.remove(name)
        else:
            ring.add_node(name)
            members.append(name)

    @precondition(lambda self: len(self.rings) < MAX_RINGS)
    @rule(which=WHICH)
    def clone(self, which):
        which %= len(self.rings)
        self.rings.append(self.rings[which].clone())
        self.members.append(list(self.members[which]))

    @rule(which=WHICH, n=SIZES,
          dead=st.sets(st.sampled_from(POOL), max_size=3))
    def lookups_match_the_model(self, which, n, dead):
        which %= len(self.rings)
        self._check_lookups(self.rings[which], self.members[which], n, dead)

    @rule(a=WHICH, b=WHICH, n=SIZES)
    def moved_ranges_match_the_model(self, a, b, n):
        a %= len(self.rings)
        b %= len(self.rings)
        old, new = self.members[a], self.members[b]
        moved = moved_ranges(self.rings[a], self.rings[b], n)
        for arc in moved:
            assert arc.old_owners != arc.new_owners
        for position in probe_positions(old, new):
            was = model_owners(old, position, n)
            now = model_owners(new, position, n)
            arcs = [arc for arc in moved if arc.contains_hash(position)]
            assert len(arcs) == (was != now), (position, arcs)
            if arcs:
                assert list(arcs[0].old_owners) == was
                assert list(arcs[0].new_owners) == now

    def teardown(self):
        for ring, members in zip(self.rings, self.members):
            assert sorted(ring.nodes) == sorted(members)
            for n in (1, 3):
                self._check_lookups(ring, members, n, set())

    @staticmethod
    def _check_lookups(ring, members, n, dead):
        def alive(node):
            return node not in dead

        for position in probe_positions(members):
            assert ring.owners_at(position, n) == model_owners(members, position, n)
        for key in KEYS:
            position = ring_hash(key)
            strict = model_owners(members, position, n)
            assert ring.intended_owners(key, n) == strict
            assert ring.preference_list(key, n) == strict
            assert ring.preference_list(key, n, alive=alive) == model_owners(
                members, position, n, alive
            )


TestRingMachine = RingMachine.TestCase
# One shrunk counterexample is enough: a stale table trips most of the
# assertions above at once, and shrinking each is minutes of replays.
TestRingMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
    report_multiple_bugs=False,
)
