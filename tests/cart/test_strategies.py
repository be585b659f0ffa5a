"""Merge semantics per strategy: who loses adds, who resurrects deletes."""

import pytest

from repro.cart import (
    CartOp,
    LwwCartStrategy,
    MaterializedCartStrategy,
    OpCartStrategy,
)
from repro.errors import SimulationError


def build(strategy, ops):
    blob = strategy.empty()
    for op in ops:
        blob = strategy.apply(blob, op)
    return blob


def divergent_siblings(strategy):
    """Base cart {book}; sibling A deletes book and adds pen; sibling B
    adds ink. A and B never saw each other."""
    base_ops = [CartOp("ADD", "book", 1, uniquifier="add-book", time=1.0)]
    base = build(strategy, base_ops)
    sibling_a = strategy.apply(
        strategy.apply(base, CartOp("DELETE", "book", uniquifier="del-book", time=2.0)),
        CartOp("ADD", "pen", 1, uniquifier="add-pen", time=3.0),
    )
    sibling_b = strategy.apply(
        base, CartOp("ADD", "ink", 1, uniquifier="add-ink", time=2.5)
    )
    return strategy.merge([sibling_a, sibling_b])


def test_op_cart_merge_loses_nothing_resurrects_nothing():
    strategy = OpCartStrategy()
    merged = divergent_siblings(strategy)
    assert strategy.view(merged) == {"pen": 1, "ink": 1}


def test_materialized_cart_keeps_adds_but_resurrects_delete():
    strategy = MaterializedCartStrategy()
    merged = divergent_siblings(strategy)
    view = strategy.view(merged)
    assert view.get("pen") == 1 and view.get("ink") == 1  # adds survive
    assert view.get("book") == 1  # the deleted book reappears (§6.4)


def test_lww_cart_loses_concurrent_adds():
    strategy = LwwCartStrategy()
    merged = divergent_siblings(strategy)
    view = strategy.view(merged)
    # Sibling A has the later stamp (t=3.0) and wins whole; B's ink is gone.
    assert view == {"pen": 1}


def test_op_cart_apply_dedups():
    strategy = OpCartStrategy()
    op = CartOp("ADD", "book", 1, uniquifier="u1", time=1.0)
    blob = strategy.apply(strategy.apply(strategy.empty(), op), op)
    assert strategy.view(blob) == {"book": 1}


def test_op_cart_merge_idempotent():
    strategy = OpCartStrategy()
    blob = build(strategy, [CartOp("ADD", "book", 1, uniquifier="u1", time=1.0)])
    merged = strategy.merge([blob, blob, blob])
    assert strategy.view(merged) == {"book": 1}


def test_op_cart_merge_commutative():
    strategy = OpCartStrategy()
    a = build(strategy, [CartOp("ADD", "book", 1, uniquifier="a", time=1.0)])
    b = build(strategy, [CartOp("ADD", "pen", 2, uniquifier="b", time=2.0)])
    assert strategy.view(strategy.merge([a, b])) == strategy.view(strategy.merge([b, a]))


def test_materialized_merge_takes_max_quantity():
    strategy = MaterializedCartStrategy()
    assert strategy.merge([{"book": 2}, {"book": 5}]) == {"book": 5}


def test_apply_does_not_mutate_input():
    for strategy in (OpCartStrategy(), MaterializedCartStrategy(), LwwCartStrategy()):
        blob = strategy.empty()
        before = repr(blob)
        strategy.apply(blob, CartOp("ADD", "book", 1, uniquifier="u", time=1.0))
        assert repr(blob) == before, strategy.name


# ----------------------------------------------------------------------
# Malformed blobs: the strategy reads the ops a blob holds directly, so
# what a broken one raises is a domain error that names what is wrong
# with it. An op is checked when it is built, so a blob entry breaks only
# by being changed after: a deleted slot or a reassigned kind.


def _entry(uniquifier="u1", time=1.0):
    return CartOp("ADD", "book", 1, uniquifier=uniquifier, time=time)


def _without(field):
    entry = _entry()
    delattr(entry, field)
    return entry


@pytest.mark.parametrize(
    "field", ["kind", "item", "quantity", "uniquifier", "time"]
)
def test_op_cart_view_names_the_missing_field(field):
    with pytest.raises(SimulationError, match=f"no field '{field}'"):
        OpCartStrategy().view([_entry(uniquifier="u0", time=0.5), _without(field)])


def test_op_cart_view_rejects_an_unknown_kind():
    stolen = _entry()
    stolen.kind = "STEAL"
    with pytest.raises(SimulationError, match="unknown cart op kind 'STEAL'"):
        OpCartStrategy().view([stolen])


def test_op_cart_merge_and_apply_name_the_missing_uniquifier():
    strategy = OpCartStrategy()
    broken = [_entry(), _without("uniquifier")]
    with pytest.raises(SimulationError, match="no field 'uniquifier'"):
        strategy.merge([[_entry()], broken])
    with pytest.raises(SimulationError, match="no field 'uniquifier'"):
        strategy.apply(broken, CartOp("ADD", "pen", uniquifier="u2"))


def test_op_cart_apply_returns_a_new_list_either_way():
    strategy = OpCartStrategy()
    book = _entry()
    blob = [book]
    fresh = CartOp("ADD", "pen", uniquifier="u2", time=2.0)
    applied = strategy.apply(blob, fresh)
    # A CartOp has no value equality: == on these lists is identity.
    assert applied == [book, fresh]
    duplicate = strategy.apply(blob, CartOp("ADD", "book", uniquifier="u1"))
    assert duplicate == blob and duplicate is not blob
    assert blob == [book]
