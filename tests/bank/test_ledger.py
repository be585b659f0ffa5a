"""Statements: immutability, chaining, late arrivals next month."""

import pytest

from repro.bank import Check, ReplicatedBank, StatementBook
from repro.errors import SimulationError


def check(number, amount):
    return Check("fnb", "acct1", number, "payee", amount)


def test_single_statement_captures_all():
    bank = ReplicatedBank(initial_deposit=1000.0)
    bank.clear_check("branch0", check(1, 100.0))
    book = StatementBook(bank.replica("branch0"))
    statement = book.close("march")
    assert statement.closing_balance == 900.0
    assert len(statement.entries) == 2  # opening deposit + the check
    book.check_exactly_once()
    assert book.chaining_consistent()


def test_late_arriving_check_lands_next_month():
    """branch1 cleared a check branch0 hadn't heard of at March close;
    it shows up on April's statement, March unmodified (§6.2)."""
    bank = ReplicatedBank(initial_deposit=1000.0)
    book = StatementBook(bank.replica("branch0"))
    bank.clear_check("branch1", check(1, 100.0))  # floating elsewhere
    march = book.close("march")
    assert march.closing_balance == 1000.0
    bank.reconcile()  # now branch0 learns of it
    april = book.close("april")
    assert march.closing_balance == 1000.0  # immutable
    assert april.opening_balance == 1000.0
    assert april.closing_balance == 900.0
    book.check_exactly_once()
    assert book.chaining_consistent()


def test_every_op_on_exactly_one_statement():
    bank = ReplicatedBank(initial_deposit=1000.0)
    book = StatementBook(bank.replica("branch0"))
    for i in range(1, 6):
        branch = "branch0" if i % 2 else "branch1"
        bank.clear_check(branch, check(i, 10.0 * i))
        if i == 3:
            book.close("m1")
            bank.reconcile()
    bank.reconcile()
    book.close("m2")
    book.check_exactly_once()
    assert book.chaining_consistent()


def test_duplicate_entry_detection():
    bank = ReplicatedBank(initial_deposit=100.0)
    book = StatementBook(bank.replica("branch0"))
    first = book.close("m1")
    # Manufacture corruption: re-issue the same entries.
    book.statements.append(first)
    with pytest.raises(SimulationError):
        book.check_exactly_once()


def test_empty_month():
    bank = ReplicatedBank(initial_deposit=100.0)
    book = StatementBook(bank.replica("branch0"))
    book.close("m1")
    quiet = book.close("m2")
    assert quiet.entries == ()
    assert quiet.opening_balance == quiet.closing_balance == 100.0
    assert book.chaining_consistent()
