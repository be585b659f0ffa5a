"""Over-provisioning vs. over-booking, with the slider in between.

Each replica sells against its *knowledge*: the set of RESERVE operations
it has seen. The grant limit blends two postures:

- θ = 0 (over-provision): a replica sells only from its private quota
  (capacity / replicas). It can never promise what isn't there, and it
  declines business its siblings' unsold quota could have covered.
- θ = 1 (over-book): a replica sells anything it *believes* remains
  globally. Disconnected siblings believing the same thing jointly
  oversell; the shortfall surfaces at reconciliation as apologies.

The limit is the linear blend; §7.1: "You can dynamically slide between
these positions... and adjust the probabilities and possibilities."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

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


class InventorySystem:
    """Shared inventory of ``capacity`` units, sold at N replicas."""

    def __init__(self, capacity: float, replica_names: List[str], theta: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not replica_names:
            raise SimulationError("need at least one replica")
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
        self.duplicates = 0
        self.redundant_returns = 0

    # ------------------------------------------------------------------

    def request(self, replica_name: str, uniquifier: str) -> AllocationOutcome:
        """One sale request for one unit at one replica, judged on local
        knowledge."""
        replica = self._replica(replica_name)
        if uniquifier in replica.ops:
            self.duplicates += 1
            return AllocationOutcome.DUPLICATE
        if self._limit(replica) >= 1.0:
            replica.ops.add(
                Operation(
                    "RESERVE", {"quantity": 1.0},
                    uniquifier=uniquifier, origin=replica_name,
                )
            )
            self.granted += 1
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

    def sync(self, a_name: str, b_name: str) -> int:
        """Bidirectional exchange between two replicas; detects redundant
        allocations for the same uniquifier made at both sides (the
        over-zealous replicas of §7.5) and counts the returned units."""
        a, b = self._replica(a_name), self._replica(b_name)
        moved = 0
        for source, target in ((a, b), (b, a)):
            for op in source.ops.missing_from(target.ops):
                target.ops.add(op)
                moved += 1
        return moved

    def sync_all(self) -> None:
        names = list(self.replicas)
        for _ in range(len(names)):
            for left, right in zip(names, names[1:] + names[:1]):
                if left != right:
                    self.sync(left, right)

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
