"""Replicated check clearing.

"Imagine a replicated bank system which has two (or more) copies of my
bank account, both of which are clearing checks." Each replica decides
against its own knowledge (the guess). Big checks trigger the §5.5
coordination: merge knowledge from every other replica before
deciding — the synchronous checkpoint, paid for in the experiment by a
latency charge per consulted replica. Overdrafts discovered when the
replicas finally talk become apologies handled by the automated
overdraft-fee handler.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.bank.account import (
    available_of,
    balance_of,
    build_account_registry,
    overdraft_rule,
)
from repro.bank.check import Check
from repro.core.antientropy import converged, sync_all, sync_replicas
from repro.core.guesses import Apology, ApologyQueue
from repro.core.operation import Operation
from repro.core.replica import Replica
from repro.core.risk import ThresholdRiskPolicy
from repro.core.rules import RuleEngine
from repro.errors import RuleViolation, SimulationError


class ClearOutcome(str, enum.Enum):
    CLEARED = "cleared"
    BOUNCED = "bounced"
    DUPLICATE = "duplicate"


class ReplicatedBank:
    """Two replicas of one account, both clearing checks."""

    num_replicas = 2
    overdraft_fee = 30.0

    def __init__(
        self,
        initial_deposit: float = 1000.0,
        coordination_threshold: Optional[float] = None,
    ) -> None:
        self.registry = build_account_registry()
        self.risk_policy = (
            ThresholdRiskPolicy(coordination_threshold)
            if coordination_threshold is not None
            else None
        )
        self.apologies = ApologyQueue()
        self.apologies.register_handler("overdraft", self._overdraft_handler)
        self.replicas: Dict[str, Replica] = {}
        for i in range(self.num_replicas):
            name = f"branch{i}"
            self.replicas[name] = Replica(
                name,
                self.registry,
                rules=RuleEngine([overdraft_rule()]),
                apologies=self.apologies,
            )
        self.coordinations = 0
        self._fee_seq = 0
        if initial_deposit > 0:
            opening = Operation(
                "DEPOSIT", {"amount": initial_deposit},
                uniquifier="opening-deposit", origin="bank", ingress_time=0.0,
            )
            for replica in self.replicas.values():
                replica.integrate([opening])

    # ------------------------------------------------------------------

    def replica(self, name: str) -> Replica:
        if name not in self.replicas:
            raise SimulationError(f"unknown branch {name!r}")
        return self.replicas[name]

    def clear_check(self, branch: str, check: Check) -> ClearOutcome:
        """Present a check at one branch; the branch decides on whatever
        knowledge it has (possibly coordinated first, if the amount says
        so)."""
        replica = self.replica(branch)
        op = Operation(
            "CLEAR_CHECK",
            {"amount": check.amount, "payee": check.payee},
            uniquifier=check.uniquifier,
            origin=branch,
            ingress_time=0.0,
        )
        if self.risk_policy is not None and self.risk_policy.requires_coordination(op):
            self._coordinate(replica)
        try:
            accepted = replica.submit(op)
        except RuleViolation:
            return ClearOutcome.BOUNCED
        return ClearOutcome.CLEARED if accepted else ClearOutcome.DUPLICATE

    def deposit(self, branch: str, amount: float, uniquifier: Optional[str] = None,
                hold: bool = False) -> bool:
        op = Operation(
            "DEPOSIT", {"amount": amount, "hold": hold},
            uniquifier=uniquifier, origin=branch, ingress_time=0.0,
        )
        return self.replica(branch).submit(op)

    # ------------------------------------------------------------------
    # Knowledge management

    def _coordinate(self, replica: Replica) -> None:
        """The synchronous checkpoint for a risky operation: pull every
        other replica's knowledge into the deciding one first."""
        for other in self.replicas.values():
            if other is not replica:
                sync_replicas(replica, other)
        self.coordinations += 1

    def reconcile(self) -> List[Apology]:
        """Let the branches talk until knowledge converges."""
        replicas = list(self.replicas.values())
        return sync_all(replicas, rounds=len(replicas))

    def converged(self) -> bool:
        return converged(list(self.replicas.values()))

    # ------------------------------------------------------------------
    # Apology code

    def _overdraft_handler(self, apology: Apology) -> bool:
        """Automated apology: charge the overdraft fee at the replica that
        detected the mess. Idempotent per detected violation."""
        replica = self.replicas.get(apology.replica)
        if replica is None:
            return False
        self._fee_seq += 1
        fee_op = Operation(
            "FEE", {"amount": self.overdraft_fee, "reason": apology.detail},
            uniquifier=f"overdraft-fee-{apology.op_uniquifier}-{self._fee_seq}",
            origin=replica.name, ingress_time=0.0,
        )
        replica.ops.add(fee_op)
        replica.state = self.registry.apply(replica.state, fee_op)
        return True

    # ------------------------------------------------------------------
    # Inspection

    def balances(self) -> Dict[str, float]:
        return {name: balance_of(r.state) for name, r in self.replicas.items()}

    def available(self, branch: str) -> float:
        return available_of(self.replica(branch).state)

    def overdraft_count(self) -> int:
        return sum(1 for a in self.apologies.all if a.rule == "overdraft")
