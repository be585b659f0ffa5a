"""Replicated clearing: idempotence, overdrafts, coordination."""

from repro.bank import Check, ClearOutcome, ReplicatedBank


def check(number, amount, account="acct1"):
    return Check("fnb", account, number, "payee", amount)


def test_clear_within_balance():
    bank = ReplicatedBank(initial_deposit=1000.0)
    assert bank.clear_check("branch0", check(1, 100.0)) is ClearOutcome.CLEARED
    assert bank.balances()["branch0"] == 900.0


def test_local_bounce_when_overdrawn():
    bank = ReplicatedBank(initial_deposit=50.0)
    assert bank.clear_check("branch0", check(1, 100.0)) is ClearOutcome.BOUNCED
    assert bank.balances()["branch0"] == 50.0


def test_same_check_twice_at_one_branch_is_duplicate():
    bank = ReplicatedBank(initial_deposit=1000.0)
    bank.clear_check("branch0", check(1, 100.0))
    assert bank.clear_check("branch0", check(1, 100.0)) is ClearOutcome.DUPLICATE
    assert bank.balances()["branch0"] == 900.0


def test_same_check_at_two_branches_collapses_on_reconcile():
    """Both replicas clear the same check; the check number makes the
    processing idempotent — exactly one debit survives (§6.2)."""
    bank = ReplicatedBank(initial_deposit=1000.0)
    bank.clear_check("branch0", check(1, 100.0))
    bank.clear_check("branch1", check(1, 100.0))
    bank.reconcile()
    assert bank.converged()
    assert set(bank.balances().values()) == {900.0}


def test_disconnected_replicas_can_jointly_overdraft():
    """600 + 600 both clear locally against 1000; reconciliation reveals
    the overdraft and the apology handler charges the fee."""
    bank = ReplicatedBank(initial_deposit=1000.0)
    assert bank.clear_check("branch0", check(1, 600.0)) is ClearOutcome.CLEARED
    assert bank.clear_check("branch1", check(2, 600.0)) is ClearOutcome.CLEARED
    apologies = bank.reconcile()
    assert len(apologies) >= 1
    assert bank.overdraft_count() >= 1
    assert bank.ledger.human == []  # the fee handler absorbed it


def test_coordination_threshold_prevents_big_check_overdraft():
    """The $10,000 rule: the big check consults the other replica first
    and sees the funds are already spoken for."""
    bank = ReplicatedBank(
        initial_deposit=1000.0, coordination_threshold=500.0
    )
    assert bank.clear_check("branch0", check(1, 600.0)) is ClearOutcome.CLEARED
    # 600 exceeds the threshold: branch1 coordinates, learns of the first
    # clear, and bounces rather than overdraw.
    assert bank.clear_check("branch1", check(2, 600.0)) is ClearOutcome.BOUNCED
    assert bank.coordinations >= 1
    bank.reconcile()
    assert bank.overdraft_count() == 0


def test_small_checks_skip_coordination():
    bank = ReplicatedBank(
        initial_deposit=1000.0, coordination_threshold=500.0
    )
    bank.clear_check("branch0", check(1, 10.0))
    assert bank.coordinations == 0


def test_balances_converge_after_reconcile():
    bank = ReplicatedBank(initial_deposit=1000.0)
    bank.clear_check("branch0", check(1, 100.0))
    bank.clear_check("branch1", check(2, 200.0))
    bank.deposit("branch1", 50.0, uniquifier="dep-x")
    bank.reconcile()
    assert bank.converged()
    assert set(bank.balances().values()) == {750.0}


def test_one_overdraft_earns_one_apology_and_one_fee():
    """$80 at branch0 and $70 at branch1 against $100: the order the bank
    saw the checks clears the $80 first, so only the $70 overdrew. Both
    branches find the overdraft; the ledger apologizes once."""
    bank = ReplicatedBank(initial_deposit=100.0)
    bank.clear_check("branch0", check(1, 80.0))
    bank.clear_check("branch1", check(2, 70.0))
    apologies = bank.reconcile()
    assert [a.uniquifier for a in apologies] == ["fnb:acct1:2"]
    assert bank.overdraft_count() == 1
    fees = [op for op in bank.replica("branch0").ops if op.op_type == "FEE"]
    assert [fee.args["amount"] for fee in fees] == [30.0]
    assert bank.balances() == {"branch0": -80.0, "branch1": -80.0}
    assert bank.ledger.unpaired() == []
