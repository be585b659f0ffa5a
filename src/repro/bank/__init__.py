"""Bank accounts and ledgers (§6.2).

"There is a reason for check-numbers on checks" — the check number (with
bank and account) is the uniquifier; debits and credits are commutative;
the account balance has an expressed business rule (never below zero)
that replicated clearing can only enforce probabilistically.

- :class:`Check` — the uniquified instrument.
- :mod:`repro.bank.account` — the account as an operation space
  (DEPOSIT / CLEAR_CHECK / BOUNCE_DEBIT / HOLD bookkeeping) on
  :mod:`repro.core`.
- :class:`ReplicatedBank` — N clearing replicas, local (probabilistic)
  overdraft enforcement, the $10,000-style coordination threshold, and
  the automated overdraft-fee apology handler.
- :class:`StatementBook` — immutable monthly statements; late-arriving
  work lands on next month's statement, never rewrites a closed one.
- :class:`DepositDesk` — the hold policy: your standing decides whether
  the bank guesses in your favor (§6.2's brother-in-law example).
"""

from repro.bank.check import Check
from repro.bank.account import build_account_registry, overdraft_rule, balance_of
from repro.bank.clearing import ClearOutcome, ReplicatedBank
from repro.bank.ledger import Statement, StatementBook
from repro.bank.policy import CustomerStanding, DepositDesk

__all__ = [
    "Check",
    "build_account_registry",
    "overdraft_rule",
    "balance_of",
    "ClearOutcome",
    "ReplicatedBank",
    "Statement",
    "StatementBook",
    "CustomerStanding",
    "DepositDesk",
]
