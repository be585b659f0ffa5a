"""Replica: submit/integrate, guesses, apologies on merge."""

import pytest

from repro.core import BusinessRule, Operation, Replica, RuleEngine
from repro.core.antientropy import sync_replicas
from repro.errors import RuleViolation
from tests.core.conftest import add_op


def cap_rule(cap):
    """Total must stay at or under cap."""

    def check(state, _op):
        if state.get("total", 0) > cap:
            return f"total {state.get('total', 0)} exceeds {cap}"
        return None

    return BusinessRule(name="cap", check=check)


def make_replica(counter_registry, name="r1", cap=None):
    rules = RuleEngine([cap_rule(cap)]) if cap is not None else None
    return Replica(name, counter_registry, rules=rules)


def test_submit_applies_and_remembers(counter_registry):
    replica = make_replica(counter_registry)
    op = add_op(5)
    assert replica.submit(op)
    assert replica.state["total"] == 5
    assert replica.knows(op.uniquifier)


def test_submit_duplicate_is_noop(counter_registry):
    replica = make_replica(counter_registry)
    op = add_op(5, uniquifier="u1")
    assert replica.submit(op)
    assert not replica.submit(add_op(999, uniquifier="u1"))
    assert replica.state["total"] == 5


def test_submit_stamps_origin(counter_registry):
    replica = make_replica(counter_registry, name="west")
    op = add_op(1)
    replica.submit(op)
    assert op.origin == "west"


def test_submit_records_guess(counter_registry):
    replica = make_replica(counter_registry)
    op = add_op(1)
    replica.submit(op)
    assert replica.ledger.guesses[op.uniquifier].origin == replica.name


def test_local_rule_refuses_at_ingress(counter_registry):
    replica = make_replica(counter_registry, cap=10)
    replica.submit(add_op(8))
    with pytest.raises(RuleViolation):
        replica.submit(add_op(5))  # 13 > 10, visible locally


def test_integration_never_refuses_but_apologizes(counter_registry):
    """Two replicas each locally-legally accept 8; merged total 16 > 10.
    The violation surfaces as an apology, not a rejection (§5.6)."""
    a = make_replica(counter_registry, name="a", cap=10)
    b = make_replica(counter_registry, name="b", cap=10)
    a.submit(add_op(8))
    b.submit(add_op(8))
    apologies = sync_replicas(a, b)
    assert len(apologies) >= 1
    assert a.state["total"] == b.state["total"] == 16
    assert len(a.ledger.apologies) + len(b.ledger.apologies) == len(apologies)


def test_integrate_dedups(counter_registry):
    a = make_replica(counter_registry, name="a")
    op = add_op(5, uniquifier="u1")
    a.submit(op)
    a.integrate([add_op(999, uniquifier="u1")])
    assert a.state["total"] == 5


def test_canonical_state_matches_for_commutative(counter_registry):
    a = make_replica(counter_registry, name="a")
    ops = [add_op(i, uniquifier=f"u{i}", ingress_time=float(i)) for i in range(4)]
    for op in ops:
        a.integrate([op])
    assert a.state == a.canonical_state()
