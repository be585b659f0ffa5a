"""Property-based: the one-pass bucket digests are the per-bucket ones.

``all_digests`` sorts a store once and hashes each key once;
``frontier_digest`` — the reference — re-sorts and re-hashes the whole
store for every bucket. They must agree to the byte, because the digests
go on the wire and into the golden traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo import VectorClock, VersionedValue
from repro.dynamo.merkle import all_digests, entry_digests, frontier_digest
from repro.dynamo.ring import ring_hash

NODES = ["n1", "n2", "n3", "device-4"]

# A clock as (node, count) pairs in a drawn order: the same counters
# inserted in different orders must digest alike.
clock_items = st.lists(
    st.tuples(st.sampled_from(NODES), st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=4, unique_by=lambda item: item[0],
)
siblings = st.lists(
    st.tuples(clock_items, st.integers()), min_size=1, max_size=3
)
stores = st.dictionaries(
    st.text(alphabet="abk0123-", min_size=1, max_size=6), siblings, max_size=25
)


def _build(raw):
    return {
        key: [VersionedValue(value, VectorClock(dict(items)))
              for items, value in versions]
        for key, versions in raw.items()
    }


@given(stores, st.sampled_from([1, 4, 16]))
@settings(max_examples=150, deadline=None)
def test_one_pass_digests_equal_the_per_bucket_reference(raw, buckets):
    store = _build(raw)
    assert all_digests(store, buckets) == [
        frontier_digest(store, bucket, buckets) for bucket in range(buckets)
    ]


@given(stores, st.sampled_from([1, 4, 16]), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_digests_ignore_every_insertion_order(raw, buckets, rnd):
    """Store order, sibling order, clock-counter order and the order a
    positioned view is handed over in: none of them reaches the hash."""
    store = _build(raw)
    shuffled = {}
    for key in rnd.sample(sorted(raw), len(raw)):
        versions = list(raw[key])
        rnd.shuffle(versions)
        shuffled[key] = [
            VersionedValue(value, VectorClock(dict(rnd.sample(items, len(items)))))
            for items, value in versions
        ]
    expected = all_digests(store, buckets)
    assert all_digests(shuffled, buckets) == expected
    view = [(key, ring_hash(key), versions) for key, versions in shuffled.items()]
    rnd.shuffle(view)
    assert entry_digests(view, buckets) == expected
