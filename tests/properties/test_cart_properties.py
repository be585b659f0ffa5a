"""Property-based: the op-centric cart is partition-oblivious — however
you split the operations into sibling blobs, merging recovers exactly the
ground-truth cart."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cart import CartOp, OpCartStrategy, materialize

cart_ops = st.builds(
    CartOp,
    kind=st.sampled_from(["ADD", "CHANGE", "DELETE"]),
    item=st.sampled_from(["book", "pen", "ink"]),
    quantity=st.integers(min_value=0, max_value=5),
    uniquifier=st.uuids().map(str),
    time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(st.lists(cart_ops, max_size=12), st.lists(st.booleans(), max_size=12))
@settings(max_examples=80)
def test_any_sibling_split_merges_to_ground_truth(ops, sides):
    strategy = OpCartStrategy()
    left, right = strategy.empty(), strategy.empty()
    for index, op in enumerate(ops):
        goes_left = sides[index] if index < len(sides) else True
        if goes_left:
            left = strategy.apply(left, op)
        else:
            right = strategy.apply(right, op)
    merged = strategy.merge([left, right])
    assert strategy.view(merged) == materialize(ops)


@given(st.lists(cart_ops, max_size=10))
@settings(max_examples=60)
def test_merge_idempotent_and_duplicate_safe(ops):
    strategy = OpCartStrategy()
    blob = strategy.empty()
    for op in ops:
        blob = strategy.apply(blob, op)
        blob = strategy.apply(blob, op)  # duplicate delivery
    merged = strategy.merge([blob, blob, blob])
    assert strategy.view(merged) == materialize(ops)


@given(st.lists(cart_ops, max_size=10))
@settings(max_examples=60)
def test_materialize_never_negative(ops):
    cart = materialize(ops)
    assert all(quantity > 0 for quantity in cart.values())


@given(st.lists(cart_ops, max_size=10), st.randoms())
@settings(max_examples=60)
def test_materialize_input_order_independent(ops, rng):
    shuffled = list(ops)
    rng.shuffle(shuffled)
    assert materialize(ops) == materialize(shuffled)


# ----------------------------------------------------------------------
# Differential: merge / apply / view over blobs of shared ops, against
# plain reference bodies kept here. Same list, in the same order, holding
# the same objects, not merely the same set.

blob_entries = st.builds(
    CartOp,
    kind=st.sampled_from(["ADD", "CHANGE", "DELETE"]),
    item=st.sampled_from(["book", "pen", "ink"]),
    quantity=st.integers(min_value=0, max_value=5),
    # Few uniquifiers and few times: siblings overlap, and ties in time
    # are broken by uniquifier, ties in both by position.
    uniquifier=st.sampled_from([f"u{i}" for i in range(8)]),
    time=st.sampled_from([0.0, 1.0, 1.5, 2.0]),
)
sibling_sets = st.lists(st.lists(blob_entries, max_size=8), max_size=4)


def _reference_merge(siblings):
    seen = {}
    for sibling in siblings:
        for entry in sibling:
            seen.setdefault(entry.uniquifier, entry)
    return list(seen.values())


def _reference_apply(blob, op):
    if any(entry.uniquifier == op.uniquifier for entry in blob):
        return list(blob)
    return list(blob) + [op]


def _reference_view(blob):
    cart = {}
    for op in sorted(blob, key=lambda op: (op.time, op.uniquifier)):
        if op.kind == "ADD":
            cart[op.item] = cart.get(op.item, 0) + op.quantity
        elif op.kind == "CHANGE":
            cart[op.item] = op.quantity
        elif op.kind == "DELETE":
            cart.pop(op.item, None)
    return {item: qty for item, qty in cart.items() if qty > 0}


def _ids(entries):
    return [id(entry) for entry in entries]


@given(sibling_sets)
@settings(max_examples=150)
def test_merge_matches_the_setdefault_union(siblings):
    merged = OpCartStrategy().merge(siblings)
    assert _ids(merged) == _ids(_reference_merge(siblings))


@given(st.lists(blob_entries, max_size=8), cart_ops, st.sampled_from(range(8)))
@settings(max_examples=150)
def test_apply_matches_the_any_scan(blob, op, collide_with):
    strategy = OpCartStrategy()
    clash = CartOp(op.kind, op.item, op.quantity, f"u{collide_with}", op.time)
    for candidate in (op, clash):
        before = _ids(blob)
        applied = strategy.apply(blob, candidate)
        assert _ids(applied) == _ids(_reference_apply(blob, candidate))
        assert applied is not blob and _ids(blob) == before


@given(sibling_sets)
@settings(max_examples=150)
def test_view_matches_materialize_over_rebuilt_ops(siblings):
    strategy = OpCartStrategy()
    for blob in siblings + [_reference_merge(siblings)]:
        view = strategy.view(blob)
        assert view == _reference_view(blob)
        assert list(view) == list(_reference_view(blob))  # same item order
        rebuilt = [
            CartOp(op.kind, op.item, op.quantity, op.uniquifier, op.time)
            for op in blob
        ]
        assert materialize(rebuilt) == view
        assert list(materialize(iter(rebuilt))) == list(view)
