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


def test_wire_roundtrip():
    op = CartOp("CHANGE", "book", 3, uniquifier="u1", time=2.5)
    assert CartOp.from_wire(op.to_wire()) == op


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
    op = CartOp("ADD", "book", 2, uniquifier="u1", time=1.5)
    same = CartOp(kind="ADD", item="book", quantity=2, uniquifier="u1", time=1.5)
    assert op == same and hash(op) == hash(same) and len({op, same}) == 1
    assert op != CartOp("ADD", "book", 2, uniquifier="u2", time=1.5)
    assert op != op.to_wire()
    assert repr(op) == (
        "CartOp(kind='ADD', item='book', quantity=2, uniquifier='u1', time=1.5)"
    )
    assert not hasattr(op, "__dict__")
    assert CartOp("DELETE", "book").quantity == 1
    assert CartOp("DELETE", "book").uniquifier.startswith("cart-DELETE-")


@pytest.mark.parametrize(
    "field", ["kind", "item", "quantity", "uniquifier", "time"]
)
def test_from_wire_names_the_missing_field(field):
    wire = CartOp("ADD", "book", uniquifier="u1").to_wire()
    del wire[field]
    with pytest.raises(SimulationError, match=f"no field '{field}'"):
        CartOp.from_wire(wire)


def test_from_wire_rejects_an_unknown_kind():
    wire = dict(CartOp("ADD", "book", uniquifier="u1").to_wire(), kind="STEAL")
    with pytest.raises(SimulationError, match="unknown cart op kind 'STEAL'"):
        CartOp.from_wire(wire)
