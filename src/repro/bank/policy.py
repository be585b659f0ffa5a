"""The hold policy: whose standing buys an optimistic guess (§6.2).

"You deposit your brother-in-law's check for $100... since you've been a
good customer, there is no hold on the money... Interestingly, the
decision to be optimistic is based on YOUR good standing with the bank."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bank.check import Check
from repro.bank.clearing import ReplicatedBank
from repro.core.guesses import ACCEPTED
from repro.errors import SimulationError


class CustomerStanding(str, enum.Enum):
    GOOD = "good"
    RISKY = "risky"


@dataclass
class _PendingDeposit:
    check: Check
    held: bool


class DepositDesk:
    """Deposits third-party checks into the account at one branch."""

    bounce_fee = 30.0

    def __init__(self, bank: ReplicatedBank, branch: str) -> None:
        self.bank = bank
        self.branch = branch
        self._pending: Dict[str, _PendingDeposit] = {}

    def deposit_check(self, check: Check, standing: CustomerStanding) -> str:
        """Credit the deposit. GOOD standing: no hold — the money is
        spendable immediately (a guess). RISKY: the amount is held until
        the drawee bank answers. Returns the deposit uniquifier."""
        deposit_id = f"deposit-{check.uniquifier}"
        held = standing is CustomerStanding.RISKY
        self.bank.deposit(
            self.branch, check.amount, uniquifier=deposit_id, hold=held
        )
        self._pending[deposit_id] = _PendingDeposit(check, held)
        return deposit_id

    def resolve(self, deposit_id: str, bounced: bool) -> Optional[str]:
        """The drawee bank answered. On a bounce: debit the amount plus
        the bounce fee (the §6.2 "$130"); the deposit was a wrong guess and
        earns its one apology, which no handler takes (a person tells the
        customer). On clearance: confirm the guess and release any hold.
        Returns the uniquifier of the correcting operation, if any."""
        if deposit_id not in self._pending:
            raise SimulationError(f"unknown deposit {deposit_id!r}")
        pending = self._pending.pop(deposit_id)
        replica = self.bank.replica(self.branch)
        if bounced:
            self.bank.ledger.settle(deposit_id, "bounced", "bounce")
            debit = self.bank.operation(
                "BOUNCE_DEBIT",
                {"amount": pending.check.amount + self.bounce_fee,
                 "check": pending.check.uniquifier},
                f"bounce-{deposit_id}", self.branch,
            )
            # A bounce is never refused: integrate directly (the money is
            # owed whether or not it overdraws — that is the customer's
            # problem now, possibly the bank's apology later).
            replica.integrate([debit])
            if pending.held:
                self._release(replica, pending, deposit_id)
            return debit.uniquifier
        self.bank.ledger.settle(deposit_id, ACCEPTED, "bounce")
        if pending.held:
            return self._release(replica, pending, deposit_id)
        return None

    def _release(self, replica, pending: _PendingDeposit, deposit_id: str) -> str:
        release = self.bank.operation(
            "RELEASE_HOLD", {"amount": pending.check.amount},
            f"release-{deposit_id}", self.branch,
        )
        replica.integrate([release])
        return release.uniquifier
