"""Property-based: the elastic ring's splice algebra.

Three truths, over arbitrary join/leave sequences:

1. Incremental splicing is exact — the spliced ring is indistinguishable
   from a ring built from scratch over the surviving node set.
2. ``moved_ranges`` is exact — a key's owner list changed across a
   reshape iff the key hashes into a reported arc; keys outside every
   arc keep their owners.
3. Ownership is a function of the node *set* — insertion order never
   matters.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo import HashRing, moved_ranges
from repro.dynamo.ring import ring_hash

POOL = [f"n{i}" for i in range(8)]

node_sets = st.lists(
    st.sampled_from(POOL), min_size=1, max_size=6, unique=True
)

# A join/leave script: each step picks a pool member; joining if absent,
# leaving if present (skipped when leaving would empty the ring).
scripts = st.lists(st.sampled_from(POOL), min_size=1, max_size=10)

sample_keys = [f"key-{i}" for i in range(80)]


def _apply(ring, script):
    """Run the join/leave script, returning the surviving node set."""
    members = set(ring.nodes)
    for name in script:
        if name in members:
            if len(members) == 1:
                continue
            ring.remove_node(name)
            members.remove(name)
        else:
            ring.add_node(name)
            members.add(name)
    return members


@given(node_sets, scripts)
@settings(max_examples=60)
def test_spliced_ring_matches_from_scratch(initial, script):
    ring = HashRing(initial, vnodes=4)
    members = _apply(ring, script)
    fresh = HashRing(sorted(members), vnodes=4)
    assert ring._positions == fresh._positions
    n = min(3, len(members))
    for key in sample_keys[:20]:
        assert ring.preference_list(key, n) == fresh.preference_list(key, n)


@given(node_sets, scripts)
@settings(max_examples=40)
def test_moved_ranges_exactly_the_ownership_changes(initial, script):
    before = HashRing(initial, vnodes=4)
    after = before.clone()
    members = _apply(after, script)
    n = min(3, len(set(initial)), len(members))
    moved = moved_ranges(before, after, n)
    for key in sample_keys:
        owners_changed = (
            before.preference_list(key, n) != after.preference_list(key, n)
        )
        in_arc = any(arc.contains_hash(ring_hash(key)) for arc in moved)
        assert owners_changed == in_arc, key


@given(node_sets, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_ownership_is_insertion_order_independent(nodes, rnd):
    shuffled = list(nodes)
    rnd.shuffle(shuffled)
    a = HashRing(nodes, vnodes=4)
    b = HashRing(shuffled, vnodes=4)
    n = min(3, len(nodes))
    for key in sample_keys[:30]:
        assert a.preference_list(key, n) == b.preference_list(key, n)


@given(node_sets, scripts)
@settings(max_examples=40)
def test_unchanged_keys_keep_all_owners(initial, script):
    """Stronger than owner(): the full top-n list is stable outside the
    moved arcs, so data on non-moved arcs never needs to transfer."""
    before = HashRing(initial, vnodes=4)
    after = before.clone()
    members = _apply(after, script)
    n = min(3, len(set(initial)), len(members))
    moved = moved_ranges(before, after, n)
    for key in sample_keys[:40]:
        if not any(arc.contains_hash(ring_hash(key)) for arc in moved):
            assert before.intended_owners(key, n) == after.intended_owners(key, n)


# ----------------------------------------------------------------------
# Differential: the sloppy preference list, which answers from the
# strict-owner table while every strict owner is alive, against the
# ring walk it only falls back to otherwise.


def _walked(ring, key, n, alive):
    start = bisect.bisect_right(ring._hashes, ring_hash(key))
    return ring._walk(start, n, alive)


@given(
    node_sets,
    scripts,
    st.sets(st.sampled_from(POOL), max_size=7),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=120)
def test_sloppy_preference_list_matches_the_walk(initial, script, dead, n):
    ring = HashRing(initial, vnodes=4)
    asked = []

    def alive(node):
        asked.append(node)
        return node not in dead

    def check():
        for key in sample_keys[:30]:
            del asked[:]
            got = ring.preference_list(key, n, alive=alive)
            asked_once = list(asked)
            assert got == _walked(ring, key, n, lambda node: node not in dead), key
            assert got is not ring.preference_list(key, n, alive=alive)  # caller's own
            strict = ring.preference_list(key, n)
            assert strict == _walked(ring, key, n, None) == ring.intended_owners(key, n)
            if not dead.intersection(strict):
                # The fast path: the strict list, each owner asked once.
                assert got == strict == asked_once

    check()
    _apply(ring, script)  # joins and leaves drop the owner tables
    check()
    # Every live node exactly once when fewer than n are alive.
    living = [node for node in ring.nodes if node not in dead]
    if len(living) < n:
        for key in sample_keys[:10]:
            assert sorted(ring.preference_list(key, n, alive=alive)) == sorted(living)


def test_sloppy_preference_list_named_cases():
    ring = HashRing(POOL, vnodes=4)
    for key in sample_keys:
        strict = ring.preference_list(key, 3)
        everyone = ring.preference_list(key, 3, alive=lambda _node: True)
        assert everyone == strict
        for victim in strict:  # one dead: the next distinct node steps in
            sloppy = ring.preference_list(key, 3, alive=lambda node: node != victim)
            assert sloppy == _walked(ring, key, 3, lambda node: node != victim)
            assert victim not in sloppy and len(sloppy) == 3
            assert [node for node in strict if node != victim] == sloppy[:2]
        two = set(POOL[:2])  # fewer than n alive: a short list
        assert set(ring.preference_list(key, 3, alive=two.__contains__)) == two
        assert ring.preference_list(key, 3, alive=lambda _node: False) == []
