"""Deposit desk: hold policy by standing, bounce handling."""

import pytest

from repro.bank import Check, CustomerStanding, DepositDesk, ReplicatedBank
from repro.bank.account import available_of
from repro.errors import SimulationError


def brother_in_law_check(amount=100.0):
    return Check("otherbank", "bil-acct", 42, "you", amount)


def make_desk(initial=1000.0):
    bank = ReplicatedBank(initial_deposit=initial)
    return bank, DepositDesk(bank, "branch0")


def test_good_standing_no_hold():
    bank, desk = make_desk()
    desk.deposit_check(brother_in_law_check(), CustomerStanding.GOOD)
    assert bank.balances()["branch0"] == 1100.0
    assert bank.available("branch0") == 1100.0  # spendable immediately


def test_risky_standing_holds_funds():
    bank, desk = make_desk()
    desk.deposit_check(brother_in_law_check(), CustomerStanding.RISKY)
    assert bank.balances()["branch0"] == 1100.0
    assert bank.available("branch0") == 1000.0  # the $100 is held


def test_bounce_debits_amount_plus_fee():
    """The §6.2 script: +100, then the check bounces and you're out 130."""
    bank, desk = make_desk()
    deposit_id = desk.deposit_check(brother_in_law_check(), CustomerStanding.GOOD)
    desk.resolve(deposit_id, bounced=True)
    assert bank.balances()["branch0"] == 1000.0 + 100.0 - 130.0


def test_bounce_refutes_the_guess():
    bank, desk = make_desk()
    deposit_id = desk.deposit_check(brother_in_law_check(), CustomerStanding.GOOD)
    desk.resolve(deposit_id, bounced=True)
    assert bank.replica("branch0").guesses.get(deposit_id).outcome == "wrong"


def test_clearance_confirms_and_releases_hold():
    bank, desk = make_desk()
    deposit_id = desk.deposit_check(brother_in_law_check(), CustomerStanding.RISKY)
    desk.resolve(deposit_id, bounced=False)
    assert bank.available("branch0") == 1100.0
    assert bank.replica("branch0").guesses.get(deposit_id).outcome == "confirmed"


def test_bounce_on_risky_also_releases_hold():
    bank, desk = make_desk()
    deposit_id = desk.deposit_check(brother_in_law_check(), CustomerStanding.RISKY)
    desk.resolve(deposit_id, bounced=True)
    # +100 deposit, -130 bounce, hold released: available == balance.
    assert bank.balances()["branch0"] == 970.0
    assert bank.available("branch0") == 970.0


def test_good_standing_exposes_bank_to_overdraft():
    """Spend the uncollected funds, then the check bounces: the balance
    dips — the optimistic guess cost real money."""
    bank, desk = make_desk(initial=10.0)
    deposit_id = desk.deposit_check(brother_in_law_check(100.0), CustomerStanding.GOOD)
    assert bank.clear_check("branch0", Check("fnb", "acct1", 1, "shop", 105.0)).value == "cleared"
    desk.resolve(deposit_id, bounced=True)
    # +100 deposit, -105 spent, -130 bounce, and the bounce overdrew the
    # account so the automated apology handler added the $30 overdraft fee.
    assert bank.balances()["branch0"] == 10.0 + 100.0 - 105.0 - 130.0 - 30.0
    assert bank.overdraft_count() >= 1


def test_unknown_deposit_rejected():
    _bank, desk = make_desk()
    with pytest.raises(SimulationError):
        desk.resolve("ghost", bounced=True)


def test_resolve_is_single_shot():
    bank, desk = make_desk()
    deposit_id = desk.deposit_check(brother_in_law_check(), CustomerStanding.GOOD)
    desk.resolve(deposit_id, bounced=False)
    with pytest.raises(SimulationError):
        desk.resolve(deposit_id, bounced=False)
