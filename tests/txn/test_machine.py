"""The txn layer's replicated machines: determinism, idempotence, and
the measured weak/strong classification."""

import pytest

from repro.core.operation import Operation
from repro.errors import SimulationError
from repro.patterns import OP_STRONG, OP_WEAK, classify_operation_space
from repro.txn import ResourceMachine, sample_resource_ops


def _op(kind, uniq, **args):
    return Operation(kind, args, uniquifier=uniq)


def test_reserve_until_capacity_then_decline():
    machine = ResourceMachine({"seats": 2})
    state = machine.initial()
    assert machine.apply(state, _op("RESERVE", "a", category="seats")) == {"ok": True}
    assert machine.apply(state, _op("RESERVE", "b", category="seats")) == {"ok": True}
    assert machine.apply(state, _op("RESERVE", "c", category="seats")) == {"ok": False}
    assert ResourceMachine.granted_count(state, "seats") == 2


def test_reserve_idempotent_by_uniquifier():
    machine = ResourceMachine({"seats": 1})
    state = machine.initial()
    assert machine.apply(state, _op("RESERVE", "a", category="seats")) == {"ok": True}
    assert machine.apply(state, _op("RESERVE", "a", category="seats")) == {"ok": True}
    assert ResourceMachine.granted_count(state, "seats") == 1


def test_cancel_returns_the_unit():
    machine = ResourceMachine({"seats": 1})
    state = machine.initial()
    machine.apply(state, _op("RESERVE", "a", category="seats"))
    assert machine.apply(state, _op("CANCEL", "c", category="seats", target="a")) == {
        "cancelled": True
    }
    assert machine.apply(state, _op("RESERVE", "b", category="seats")) == {"ok": True}


def test_close_stops_grants():
    machine = ResourceMachine({"seats": 3})
    state = machine.initial()
    machine.apply(state, _op("CLOSE", "x", category="seats"))
    assert machine.apply(state, _op("RESERVE", "a", category="seats")) == {"ok": False}


def test_copy_is_independent():
    machine = ResourceMachine({"seats": 2})
    state = machine.initial()
    snapshot = machine.copy(state)
    machine.apply(state, _op("RESERVE", "a", category="seats"))
    assert ResourceMachine.granted_count(snapshot, "seats") == 0


def test_unknown_category_and_type_rejected():
    machine = ResourceMachine({"seats": 1})
    state = machine.initial()
    with pytest.raises(SimulationError):
        machine.apply(state, _op("RESERVE", "a", category="rooms"))
    with pytest.raises(SimulationError):
        machine.apply(state, _op("FROB", "b", category="seats"))
    with pytest.raises(SimulationError):
        ResourceMachine({})


def test_measured_classification_splits_weak_and_strong():
    """The tentpole's routing premise: the classifier *measures* that the
    escrow-style ops commute (weak fast path) and the overwrite-style ops
    do not (strong path)."""
    machine = ResourceMachine({"seats": 12})
    profile = classify_operation_space(machine.registry(), sample_resource_ops())
    classes = profile.op_classes()
    for kind in ResourceMachine.WEAK_TYPES:
        assert classes[kind] == OP_WEAK, kind
    assert classes["SET_CAPACITY"] == OP_STRONG


def test_reserve_commutes_away_from_the_boundary():
    """Order-insensitivity of the state dicts is what the classifier
    leans on; two RESERVEs in either order produce equal state."""
    machine = ResourceMachine({"seats": 5})
    one = machine.initial()
    machine.apply(one, _op("RESERVE", "a", category="seats"))
    machine.apply(one, _op("RESERVE", "b", category="seats"))
    two = machine.initial()
    machine.apply(two, _op("RESERVE", "b", category="seats"))
    machine.apply(two, _op("RESERVE", "a", category="seats"))
    assert one == two
