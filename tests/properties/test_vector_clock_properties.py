"""Property-based: vector clocks form a partial order with merge as LUB,
and sibling pruning keeps exactly the maximal frontier."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo import VectorClock, VersionedValue
from repro.dynamo.versions import prune_dominated

clocks = st.dictionaries(
    keys=st.sampled_from(["n1", "n2", "n3"]),
    values=st.integers(min_value=0, max_value=5),
    max_size=3,
).map(VectorClock)


@given(clocks)
def test_descends_reflexive(a):
    assert a.descends(a)


@given(clocks, clocks)
def test_descends_antisymmetric(a, b):
    if a.descends(b) and b.descends(a):
        assert a == b


@given(clocks, clocks, clocks)
@settings(max_examples=60)
def test_descends_transitive(a, b, c):
    if a.descends(b) and b.descends(c):
        assert a.descends(c)


@given(clocks, clocks)
def test_merge_is_upper_bound(a, b):
    merged = a.merge(b)
    assert merged.descends(a)
    assert merged.descends(b)


@given(clocks, clocks, clocks)
@settings(max_examples=60)
def test_merge_is_least_upper_bound(a, b, c):
    if c.descends(a) and c.descends(b):
        assert c.descends(a.merge(b))


@given(clocks, clocks)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(st.lists(clocks, max_size=8))
@settings(max_examples=60)
def test_prune_keeps_only_maximal_frontier(clock_list):
    versions = [VersionedValue(i, clock) for i, clock in enumerate(clock_list)]
    frontier = prune_dominated(versions)
    # 1. Pairwise concurrent (no member dominates another).
    for x in frontier:
        for y in frontier:
            if x is not y:
                assert not x.clock.descends(y.clock) or not y.clock.descends(x.clock)
    # 2. Complete: every input is descended by some frontier member.
    for version in versions:
        assert any(kept.clock.descends(version.clock) for kept in frontier)
    # 3. Frontier clocks are distinct.
    assert len({kept.clock for kept in frontier}) == len(frontier)


@given(st.lists(clocks, max_size=6))
@settings(max_examples=40)
def test_prune_insensitive_to_input_order(clock_list):
    versions = [VersionedValue(i, clock) for i, clock in enumerate(clock_list)]
    forward = {v.clock for v in prune_dominated(versions)}
    backward = {v.clock for v in prune_dominated(list(reversed(versions)))}
    assert forward == backward


# ----------------------------------------------------------------------
# Differential: each fast path against its straight-line definition.

raw_counters = st.dictionaries(
    keys=st.sampled_from(["n1", "n2", "n3", "n4"]),
    values=st.integers(min_value=0, max_value=4),  # zeros included on purpose
    max_size=4,
)


def _descends_pointwise(a, b):
    return all(a.counters.get(node, 0) >= count for node, count in b.counters.items())


def _prune_straight_line(versions):
    """``prune_dominated`` as it read before it learnt to stop early."""
    frontier = []
    for candidate in versions:
        if any(_descends_pointwise(kept.clock, candidate.clock) for kept in frontier):
            continue
        frontier = [
            kept for kept in frontier
            if not _descends_pointwise(candidate.clock, kept.clock)
        ]
        frontier.append(candidate)
    return frontier


@given(clocks, clocks)
def test_descends_matches_the_pointwise_definition(a, b):
    assert a.descends(b) == _descends_pointwise(a, b)
    assert a.concurrent_with(b) == (
        not _descends_pointwise(a, b) and not _descends_pointwise(b, a)
    )


@given(raw_counters, raw_counters)
def test_eq_and_cached_hash_agree_with_the_nonzero_counters(x, y):
    a, b = VectorClock(x), VectorClock(y)
    nonzero = lambda raw: {n: c for n, c in raw.items() if c > 0}  # noqa: E731
    assert a.counters == nonzero(x)
    assert (a == b) == (nonzero(x) == nonzero(y))
    if a == b:
        assert hash(a) == hash(b)
    first = hash(a)
    assert hash(a) == first == hash(tuple(sorted(nonzero(x).items())))
    # A clock that was hashed and one that was not are the same set member.
    assert len({a, VectorClock(dict(reversed(list(x.items()))))}) == 1
    assert VectorClock() == VectorClock({}) == VectorClock({"n1": 0})
    assert hash(VectorClock()) == hash(VectorClock({"n1": 0}))


@given(st.lists(clocks, max_size=9))
@settings(max_examples=120)
def test_prune_matches_the_straight_line_body(clock_list):
    versions = [VersionedValue(i, clock) for i, clock in enumerate(clock_list)]
    kept = prune_dominated(versions)
    expected = _prune_straight_line(versions)
    assert [id(v) for v in kept] == [id(v) for v in expected]
    assert prune_dominated(iter(versions)) == expected  # any iterable
    assert prune_dominated([]) == []


def test_versioned_value_keeps_the_dataclass_contract():
    clock = VectorClock({"n1": 1})
    a, b = VersionedValue("v", clock), VersionedValue(value="v", clock=VectorClock({"n1": 1}))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != VersionedValue("w", clock) and a != VersionedValue("v", VectorClock())
    assert a != ("v", clock)
    assert repr(a) == "VersionedValue(value='v', clock=VC(n1:1))"
    assert not hasattr(a, "__dict__")
