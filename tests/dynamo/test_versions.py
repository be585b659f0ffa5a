"""Vector clocks and sibling pruning."""

from repro.dynamo import VectorClock, VersionedValue
from repro.dynamo.versions import prune_dominated


def test_descends_reflexive_and_ordered():
    a = VectorClock({"n1": 2})
    b = VectorClock({"n1": 1})
    assert a.descends(a)
    assert a.descends(b)
    assert not b.descends(a)


def test_empty_clock_descended_by_all():
    assert VectorClock({"n1": 1}).descends(VectorClock())
    assert VectorClock().descends(VectorClock())


def test_concurrent_detection():
    a = VectorClock({"n1": 1})
    b = VectorClock({"n2": 1})
    assert a.concurrent_with(b)
    assert not a.concurrent_with(a)


def test_merge_is_pointwise_max():
    a = VectorClock({"n1": 3, "n2": 1})
    b = VectorClock({"n2": 5, "n3": 2})
    merged = a.merge(b)
    assert merged.counters == {"n1": 3, "n2": 5, "n3": 2}
    assert merged.descends(a) and merged.descends(b)


def test_merge_commutative():
    a = VectorClock({"n1": 1})
    b = VectorClock({"n2": 2})
    assert a.merge(b) == b.merge(a)


def test_zero_counters_dropped():
    assert VectorClock({"n1": 0}).counters == {}


def test_hashable_and_eq():
    a = VectorClock({"n1": 1})
    b = VectorClock({"n1": 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_prune_keeps_concurrent_siblings():
    va = VersionedValue("a", VectorClock({"n1": 1}))
    vb = VersionedValue("b", VectorClock({"n2": 1}))
    frontier = prune_dominated([va, vb])
    assert {v.value for v in frontier} == {"a", "b"}


def test_prune_drops_dominated():
    old = VersionedValue("old", VectorClock({"n1": 1}))
    new = VersionedValue("new", VectorClock({"n1": 2}))
    assert prune_dominated([old, new]) == [new]
    assert prune_dominated([new, old]) == [new]


def test_prune_collapses_duplicates():
    a = VersionedValue("x", VectorClock({"n1": 1}))
    b = VersionedValue("x", VectorClock({"n1": 1}))
    assert len(prune_dominated([a, b])) == 1


def test_prune_mixed():
    base = VersionedValue("base", VectorClock({"n1": 1}))
    left = VersionedValue("left", VectorClock({"n1": 2}))
    right = VersionedValue("right", VectorClock({"n1": 1, "n2": 1}))
    frontier = prune_dominated([base, left, right])
    assert {v.value for v in frontier} == {"left", "right"}
