"""InvariantMonitor and the predicate builders."""

import pytest

from repro.chaos.history import (
    ADD, OK, History, acked_is_durable, at_most_one_effect, lost_acks,
)
from repro.chaos.invariants import (
    InvariantMonitor,
    Violation,
    _states_equivalent,
    balance_matches_entries,
    escrow_non_negative,
    no_money_created,
    replicas_converge,
)
from repro.chaos.scenarios import debits
from repro.bank.account import build_account_registry
from repro.core.escrow import EscrowAccount
from repro.core.operation import Operation
from repro.core.replica import Replica
from repro.errors import SimulationError
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------------
# The monitor


def test_cadence_checks_run_on_schedule():
    sim = Simulator(seed=0)
    monitor = InvariantMonitor(sim)
    calls = []
    monitor.register("probe", lambda: calls.append(sim.now) or None)
    monitor.start(period=1.0, until=5.0)
    sim.run(until=10.0)
    assert calls == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert monitor.violations == []


def test_violation_is_latched_and_recorded_with_context():
    sim = Simulator(seed=0)
    sim.trace.emit("test", "before", detail="context-marker")
    monitor = InvariantMonitor(sim)
    monitor.register("always-broken", lambda: "it broke")
    monitor.start(period=1.0, until=5.0)
    sim.run(until=10.0)

    # Latched: one violation despite five cadence checks.
    assert len(monitor.violations) == 1
    violation = monitor.violations[0]
    assert violation.invariant == "always-broken"
    assert violation.detail == "it broke"
    assert violation.time == 1.0
    assert violation.phase == "cadence"
    assert any("context-marker" in line for line in violation.context)
    assert monitor.violations
    assert sim.metrics.counter("chaos.violation.always-broken").value == 1


def test_quiesce_only_invariants_skip_cadence():
    sim = Simulator(seed=0)
    monitor = InvariantMonitor(sim)
    monitor.register("final-only", lambda: "broken at the end", when="quiesce")
    monitor.start(period=1.0, until=3.0)
    sim.run(until=5.0)
    assert monitor.violations == []
    found = monitor.check_now("quiesce")
    assert [v.invariant for v in found] == ["final-only"]
    assert found[0].phase == "quiesce"


def test_register_rejects_duplicates_and_bad_schedule():
    monitor = InvariantMonitor(Simulator(seed=0))
    monitor.register("x", lambda: None)
    with pytest.raises(SimulationError):
        monitor.register("x", lambda: None)
    with pytest.raises(SimulationError):
        monitor.register("y", lambda: None, when="sometimes")
    with pytest.raises(SimulationError):
        monitor.start(period=0.0, until=1.0)


def test_violation_signature_ignores_time_and_context():
    a = Violation("inv", 1.0, "detail", "cadence", context=("t1",))
    b = Violation("inv", 9.0, "detail", "quiesce", context=("t2",))
    assert a.signature == b.signature
    assert a != b


# ----------------------------------------------------------------------
# Predicate builders


def make_replicas(count=2):
    registry = build_account_registry()
    return [Replica(f"r{i}", registry) for i in range(count)]


def op(uniquifier, op_type="DEPOSIT", **args):
    args.setdefault("amount", 100.0)
    return Operation(op_type, args, uniquifier=uniquifier, origin="test",
                     ingress_time=0.0)


def test_balance_matches_entries_detects_corruption():
    replicas = make_replicas()
    for replica in replicas:
        replica.integrate([op("d1")])
    check = balance_matches_entries(replicas)
    assert check() is None
    replicas[1].state = dict(replicas[1].state, balance=999.0)
    assert "r1" in check()


def test_no_money_created_passes_on_exact_deposits():
    replicas = make_replicas()
    for replica in replicas:
        replica.integrate([op("d1", amount=50.0)])
    check = no_money_created(replicas, lambda: 50.0)
    assert check() is None


def test_no_money_created_catches_recovery_recredit():
    replicas = make_replicas()
    replicas[0].integrate([op("d1", amount=50.0), op("recovery:1", amount=50.0)])
    check = no_money_created(replicas, lambda: 50.0)
    assert "exceed" in check()


def test_no_duplicate_debits_keys_on_check_number():
    replicas = make_replicas()
    ops = [
        op("check:1", "CLEAR_CHECK", amount=10.0, check_no=1),
        op("check:2", "CLEAR_CHECK", amount=20.0, check_no=2),
    ]
    replicas[0].integrate(ops)
    replicas[1].integrate(ops)  # one debit per replica is no duplicate
    assert at_most_one_effect(debits(replicas)) is None
    # the same physical check under a second uniquifier = double debit
    replicas[0].integrate([op("check:1@b2", "CLEAR_CHECK", amount=10.0, check_no=1)])
    assert at_most_one_effect(debits(replicas)) == (
        "uniquifier 1 took effect twice in 'r0'"
    )


def test_replicas_converge_detects_missing_ops():
    replicas = make_replicas()
    replicas[0].integrate([op("d1")])
    check = replicas_converge(replicas)
    assert "disagree" in check()
    replicas[1].integrate([op("d1")])
    assert check() is None


def test_states_equivalent_tolerates_float_summation_order():
    # 0.1+0.2+0.3 != 0.3+0.2+0.1 bitwise; convergence must not care.
    a = {"balance": (0.1 + 0.2) + 0.3, "entries": frozenset({1})}
    b = {"balance": 0.1 + (0.2 + 0.3), "entries": frozenset({1})}
    assert a["balance"] != b["balance"]
    assert _states_equivalent(a, b)
    assert not _states_equivalent(a, {"balance": 0.7, "entries": frozenset({1})})
    assert not _states_equivalent(a, {"balance": a["balance"]})


def test_escrow_non_negative():
    sim = Simulator(seed=0)
    account = EscrowAccount(sim, initial=10.0)
    check = escrow_non_negative(account)
    assert check() is None
    account.value = -1.0
    assert "below" in check()


def test_no_lost_cart_adds():
    history = History(Simulator(seed=0))
    for item in ("book", "pen"):
        history.complete(history.invoke("phone", ADD, "cart", item), OK)
    view = {"book": 1, "pen": 1, "extra": 3}
    assert lost_acks(history, lambda _cart: view) == []
    assert acked_is_durable(lost_acks(history, lambda _cart: {"book": 1})) == (
        "1 acked writes lost, first: cart lacks 'pen'"
    )
