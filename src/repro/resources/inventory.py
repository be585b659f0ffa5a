"""Over-provisioning vs. over-booking, with the slider in between.

Each replica sells against its *knowledge*: the set of RESERVE operations
it has seen. The grant limit blends two postures:

- θ = 0 (over-provision): a replica sells only from its private quota
  (capacity / replicas). It can never promise what isn't there, and it
  declines business its siblings' unsold quota could have covered.
- θ = 1 (over-book): a replica sells anything it *believes* remains
  globally. Disconnected siblings believing the same thing jointly
  oversell; the shortfall surfaces at reconciliation as apologies.

Every grant is a guess in the system's :class:`~repro.core.guesses.Ledger`;
:meth:`InventorySystem.sync_all` settles them in the canonical order, and
each grant past capacity earns one apology, for a human to make good.

The limit is the linear blend; §7.1: "You can dynamically slide between
these positions... and adjust the probabilities and possibilities."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.antientropy import sync_all, sync_replicas
from repro.core.guesses import Ledger
from repro.core.operation import Operation
from repro.core.oplog import OpSet
from repro.errors import SimulationError


class AllocationOutcome(str, enum.Enum):
    GRANTED = "granted"
    DECLINED = "declined"
    DUPLICATE = "duplicate"


@dataclass
class _ReplicaView:
    name: str
    ops: OpSet

    def integrate(self, ops: Iterable[Operation]) -> list:
        """Learn remote sales; no rules run (oversell is counted globally)."""
        for op in ops:
            self.ops.add(op)
        return []


class InventorySystem:
    """Shared inventory of ``capacity`` units, sold at N replicas."""

    def __init__(self, capacity: float, replica_names: List[str], theta: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not replica_names:
            raise SimulationError("need at least one replica")
        if len(set(replica_names)) != len(replica_names):
            raise SimulationError(f"repeated replica name in {replica_names!r}")
        if not 0.0 <= theta <= 1.0:
            raise SimulationError(f"theta must be in [0, 1], got {theta}")
        self.capacity = capacity
        self.theta = theta
        self.replicas: Dict[str, _ReplicaView] = {
            name: _ReplicaView(name, OpSet()) for name in replica_names
        }
        self.quota = capacity / len(replica_names)
        self.declined = 0
        self.granted = 0
        self.ledger = Ledger()

    # ------------------------------------------------------------------

    def request(self, replica_name: str, uniquifier: str) -> AllocationOutcome:
        """One sale request for one unit at one replica, judged on local
        knowledge."""
        replica = self._replica(replica_name)
        if uniquifier in replica.ops:
            return AllocationOutcome.DUPLICATE
        if self._limit(replica) >= 1.0:
            replica.ops.add(
                Operation(
                    "RESERVE", {"quantity": 1.0},
                    uniquifier=uniquifier, origin=replica_name,
                )
            )
            self.granted += 1
            self.ledger.guess(uniquifier, AllocationOutcome.GRANTED, replica_name)
            return AllocationOutcome.GRANTED
        self.declined += 1
        return AllocationOutcome.DECLINED

    def _limit(self, replica: _ReplicaView) -> float:
        believed_remaining = self.capacity - self._known_reserved(replica)
        own_quota_left = self.quota - self._own_reserved(replica)
        provision_limit = min(own_quota_left, believed_remaining)
        return (1.0 - self.theta) * provision_limit + self.theta * believed_remaining

    def _known_reserved(self, replica: _ReplicaView) -> float:
        return sum(op.args["quantity"] for op in replica.ops)

    def _own_reserved(self, replica: _ReplicaView) -> float:
        return sum(
            op.args["quantity"] for op in replica.ops if op.origin == replica.name
        )

    # ------------------------------------------------------------------
    # Reconciliation

    def sync(self, a_name: str, b_name: str) -> None:
        """Bidirectional exchange; a sale both sides made under one
        uniquifier (the over-zealous replicas of §7.5) collapses to one."""
        sync_replicas(self._replica(a_name), self._replica(b_name))

    def sync_all(self) -> None:
        """Converge every replica, then settle every grant in the
        canonical order: the first ``capacity`` units are confirmed, each
        one past it was oversold."""
        replicas = list(self.replicas.values())
        sync_all(replicas, rounds=len(replicas))
        reserved = 0.0
        for op in self.global_ops().canonical_order():
            reserved += op.args["quantity"]
            fits = reserved <= self.capacity
            self.ledger.settle(
                op.uniquifier, AllocationOutcome.GRANTED if fits else "oversold", "oversell"
            )

    # ------------------------------------------------------------------
    # Accounting

    def global_ops(self) -> OpSet:
        merged = OpSet()
        for replica in self.replicas.values():
            merged.merge(replica.ops)
        return merged

    def total_reserved(self) -> float:
        """Globally distinct reservations (uniquifier-deduplicated — the
        §7.5 dedup returns the redundant copies for free)."""
        return sum(op.args["quantity"] for op in self.global_ops())

    def oversold(self) -> float:
        """Units promised beyond capacity — each is an apology waiting."""
        return max(0.0, self.total_reserved() - self.capacity)

    def unsold(self) -> float:
        return max(0.0, self.capacity - self.total_reserved())

    def _replica(self, name: str) -> _ReplicaView:
        if name not in self.replicas:
            raise SimulationError(f"unknown replica {name!r}")
        return self.replicas[name]
