"""Consistent hashing ring."""

import pytest

from repro.errors import SimulationError
from repro.dynamo import HashRing, moved_ranges
from repro.dynamo.ring import ring_hash


def test_empty_ring_rejected():
    with pytest.raises(SimulationError):
        HashRing([])


def test_owner_is_deterministic():
    ring = HashRing(["a", "b", "c"])
    assert ring.owner("key1") == ring.owner("key1")


def test_preference_list_distinct_nodes():
    ring = HashRing(["a", "b", "c", "d"], vnodes=8)
    prefs = ring.preference_list("some-key", 3)
    assert len(prefs) == 3
    assert len(set(prefs)) == 3


def test_preference_list_skips_dead_nodes():
    ring = HashRing(["a", "b", "c", "d"], vnodes=8)
    strict = ring.preference_list("k", 3)
    dead = strict[0]
    sloppy = ring.preference_list("k", 3, alive=lambda n: n != dead)
    assert dead not in sloppy
    assert len(sloppy) == 3


def test_preference_list_shorter_when_ring_exhausted():
    ring = HashRing(["a", "b"], vnodes=4)
    assert len(ring.preference_list("k", 5)) == 2


def test_bad_n_rejected():
    ring = HashRing(["a"])
    with pytest.raises(SimulationError):
        ring.preference_list("k", 0)


def test_keys_spread_across_nodes():
    ring = HashRing([f"n{i}" for i in range(5)], vnodes=32)
    owners = {ring.owner(f"key-{i}") for i in range(200)}
    assert len(owners) == 5  # every node owns something


def test_intended_owners_ignore_liveness():
    ring = HashRing(["a", "b", "c"], vnodes=8)
    assert ring.intended_owners("k", 2) == ring.preference_list("k", 2)


# ----------------------------------------------------------------------
# Elastic membership


def test_duplicate_nodes_rejected_at_init():
    with pytest.raises(SimulationError, match="duplicate"):
        HashRing(["a", "b", "a"])


def test_add_node_duplicate_rejected():
    ring = HashRing(["a", "b"])
    with pytest.raises(SimulationError, match="duplicate"):
        ring.add_node("a")


def test_remove_node_unknown_rejected():
    ring = HashRing(["a", "b"])
    with pytest.raises(SimulationError, match="unknown"):
        ring.remove_node("zebra")


def test_remove_last_node_rejected():
    ring = HashRing(["a"])
    with pytest.raises(SimulationError, match="at least one"):
        ring.remove_node("a")


def test_add_node_matches_from_scratch_ring():
    ring = HashRing(["a", "b", "c"], vnodes=8)
    ring.add_node("d")
    fresh = HashRing(["a", "b", "c", "d"], vnodes=8)
    assert ring._positions == fresh._positions
    for i in range(50):
        key = f"key-{i}"
        assert ring.preference_list(key, 3) == fresh.preference_list(key, 3)


def test_remove_node_matches_from_scratch_ring():
    ring = HashRing(["a", "b", "c", "d"], vnodes=8)
    ring.remove_node("b")
    fresh = HashRing(["a", "c", "d"], vnodes=8)
    assert ring._positions == fresh._positions
    for i in range(50):
        key = f"key-{i}"
        assert ring.preference_list(key, 3) == fresh.preference_list(key, 3)


def test_clone_is_independent():
    ring = HashRing(["a", "b", "c"], vnodes=8)
    snapshot = ring.clone()
    ring.add_node("d")
    assert "d" in ring.nodes
    assert "d" not in snapshot.nodes
    assert len(snapshot._positions) == 3 * 8


def test_moved_ranges_exact_over_keys():
    """A key's owner list changed iff the key hashes into a moved arc."""
    before = HashRing(["a", "b", "c", "d"], vnodes=8)
    after = before.clone()
    after.add_node("e")
    moved = moved_ranges(before, after, n=3)
    assert moved  # a join always moves something
    changed = 0
    for i in range(500):
        key = f"key-{i}"
        owners_changed = (
            before.preference_list(key, 3) != after.preference_list(key, 3)
        )
        in_arc = any(arc.contains_hash(ring_hash(key)) for arc in moved)
        assert owners_changed == in_arc, key
        changed += owners_changed
    assert 0 < changed < 500


def test_moved_ranges_identical_rings_move_nothing():
    ring = HashRing(["a", "b", "c"], vnodes=8)
    assert moved_ranges(ring, ring.clone(), n=3) == []


def test_moved_range_gained_and_lost():
    before = HashRing(["a", "b", "c", "d"], vnodes=8)
    after = before.clone()
    after.remove_node("c")
    for arc in moved_ranges(before, after, n=3):
        assert "c" not in arc.new_owners
        for node in arc.gained:
            assert node in arc.new_owners and node not in arc.old_owners
        for node in arc.lost:
            assert node in arc.old_owners and node not in arc.new_owners


def test_moved_range_contains_hash_wraps():
    from repro.dynamo.ring import MovedRange, RING_SIZE

    arc = MovedRange(RING_SIZE - 10, 5, ("a",), ("b",))
    assert arc.contains_hash(RING_SIZE - 1)
    assert arc.contains_hash(0)
    assert arc.contains_hash(4)
    assert not arc.contains_hash(5)
    assert not arc.contains_hash(RING_SIZE - 11)


def test_position_in_ranges_is_half_open():
    from repro.dynamo.ring import position_in_ranges

    assert position_in_ranges(10, [(10, 20)])
    assert position_in_ranges(19, [(10, 20)])
    assert not position_in_ranges(20, [(10, 20)])
    assert not position_in_ranges(9, [(10, 20)])
    assert position_in_ranges(25, [(10, 20), (25, 26)])  # any arc will do
    assert not position_in_ranges(0, [])


def test_position_in_ranges_wraps_through_zero():
    from repro.dynamo.ring import RING_SIZE, position_in_ranges

    arc = [(RING_SIZE - 10, 5)]
    for inside in (RING_SIZE - 10, RING_SIZE - 1, 0, 4):
        assert position_in_ranges(inside, arc), inside
    for outside in (5, 6, RING_SIZE - 11):
        assert not position_in_ranges(outside, arc), outside
    # An arc ending exactly at zero holds the top of the ring, not zero.
    assert position_in_ranges(RING_SIZE - 1, [(RING_SIZE - 10, 0)])
    assert not position_in_ranges(0, [(RING_SIZE - 10, 0)])


def test_position_in_ranges_start_equals_end_is_the_whole_ring():
    """What moved_ranges reports when every arc coalesces into one."""
    from repro.dynamo.ring import RING_SIZE, position_in_ranges

    for position in (0, 6, 7, 8, RING_SIZE - 1):
        assert position_in_ranges(position, [(7, 7)])
        assert position_in_ranges(position, [(0, 0)])


def test_strict_owners_follow_the_ring_through_reshapes():
    """The owner table answers for the current ring state only."""
    ring = HashRing(["a", "b", "c"], vnodes=8)
    keys = [f"key-{i}" for i in range(100)]
    assert all("d" not in ring.intended_owners(key, 3) for key in keys)
    ring.add_node("d")
    fresh = HashRing(["a", "b", "c", "d"], vnodes=8)
    assert [ring.intended_owners(k, 3) for k in keys] == [
        fresh.intended_owners(k, 3) for k in keys
    ]
    ring.remove_node("a")
    assert all("a" not in ring.intended_owners(key, 3) for key in keys)


def test_strict_owner_lists_are_the_callers_to_mutate():
    ring = HashRing(["a", "b", "c"], vnodes=8)
    first = ring.intended_owners("k", 2)
    first.append("intruder")
    assert ring.intended_owners("k", 2) == first[:2]
