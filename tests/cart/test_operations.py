"""Cart ops and materialization."""

import pytest

from repro.cart import CartOp, materialize
from repro.errors import SimulationError


def test_bad_kind_rejected():
    with pytest.raises(SimulationError):
        CartOp("STEAL", "book")


def test_auto_uniquifier():
    a = CartOp("ADD", "book")
    b = CartOp("ADD", "book")
    assert a.uniquifier != b.uniquifier


def test_materialize_add_accumulates():
    ops = [
        CartOp("ADD", "book", 1, uniquifier="a", time=1.0),
        CartOp("ADD", "book", 2, uniquifier="b", time=2.0),
    ]
    assert materialize(ops) == {"book": 3}


def test_materialize_change_overwrites():
    ops = [
        CartOp("ADD", "book", 5, uniquifier="a", time=1.0),
        CartOp("CHANGE", "book", 2, uniquifier="b", time=2.0),
    ]
    assert materialize(ops) == {"book": 2}


def test_materialize_delete_removes():
    ops = [
        CartOp("ADD", "book", 1, uniquifier="a", time=1.0),
        CartOp("DELETE", "book", uniquifier="b", time=2.0),
    ]
    assert materialize(ops) == {}


def test_materialize_order_independent_input():
    forward = [
        CartOp("ADD", "book", 1, uniquifier="a", time=1.0),
        CartOp("DELETE", "book", uniquifier="b", time=2.0),
        CartOp("ADD", "pen", 1, uniquifier="c", time=3.0),
    ]
    assert materialize(forward) == materialize(reversed(forward)) == {"pen": 1}


def test_materialize_add_after_delete_stays():
    ops = [
        CartOp("DELETE", "book", uniquifier="a", time=1.0),
        CartOp("ADD", "book", 1, uniquifier="b", time=2.0),
    ]
    assert materialize(ops) == {"book": 1}


def test_zero_quantity_change_drops_item():
    ops = [
        CartOp("ADD", "book", 1, uniquifier="a", time=1.0),
        CartOp("CHANGE", "book", 0, uniquifier="b", time=2.0),
    ]
    assert materialize(ops) == {}


def test_hand_written_op_keeps_the_dataclass_contract():
    op = CartOp(kind="ADD", item="book", quantity=2, uniquifier="u1", time=1.5)
    assert repr(op) == (
        "CartOp(kind='ADD', item='book', quantity=2, uniquifier='u1', time=1.5)"
    )
    assert not hasattr(op, "__dict__")
    assert CartOp("DELETE", "book").quantity == 1
    assert CartOp("DELETE", "book").uniquifier.startswith("cart-DELETE-")
