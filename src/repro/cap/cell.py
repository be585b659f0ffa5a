"""The two-site replicated counter under three CAP stances."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.operation import Operation
from repro.core.oplog import OpSet
from repro.errors import SimulationError


class Stance(str, enum.Enum):
    CP = "cp"          # consistency + partition tolerance: refuse when cut off
    AP_LWW = "ap-lww"  # availability via last-writer-wins merge
    AP_OPS = "ap-ops"  # availability via operation-centric merge (ACID 2.0)


@dataclass
class _Site:
    name: str
    ops: OpSet
    snapshot: float = field(default=0.0, init=False)  # LWW view
    snapshot_stamp: Tuple[float, str] = field(default=(0.0, ""), init=False)


class CapCell:
    """One logical counter, replicated at two sites."""

    SITES = ("east", "west")
    #: The site a CP cell keeps serving from while partitioned.
    quorum_site = "east"

    def __init__(self, stance: Stance) -> None:
        self.stance = Stance(stance)
        self.partitioned = False
        self._sites: Dict[str, _Site] = {
            name: _Site(name, OpSet()) for name in self.SITES
        }
        self.refused = 0
        self.accepted = 0
        self.total_accepted_amount = 0.0
        self.lost_updates: List[str] = []

    # ------------------------------------------------------------------

    def _site(self, name: str) -> _Site:
        if name not in self._sites:
            raise SimulationError(f"unknown site {name!r}")
        return self._sites[name]

    def _serving(self, site: _Site) -> bool:
        if not self.partitioned:
            return True
        if self.stance is Stance.CP:
            return site.name == self.quorum_site
        return True

    # ------------------------------------------------------------------
    # Client operations

    def increment(self, site_name: str, amount: float, uniquifier: str,
                  at: float = 0.0) -> bool:
        """Apply an increment at one site. Returns False when the stance
        refuses (CP minority during a partition)."""
        site = self._site(site_name)
        if not self._serving(site):
            self.refused += 1
            return False
        op = Operation(
            "INC", {"amount": amount}, uniquifier=uniquifier,
            origin=site_name, ingress_time=at,
        )
        if site.ops.add(op):
            site.snapshot += amount
            site.snapshot_stamp = (at, uniquifier)
            self.accepted += 1
            self.total_accepted_amount += amount
            if not self.partitioned:
                # Connected: replicate synchronously (both stances do).
                peer = self._peer(site_name)
                if peer.ops.add(op):
                    peer.snapshot += amount
                    peer.snapshot_stamp = (at, uniquifier)
        return True

    def read(self, site_name: str) -> Optional[float]:
        """Read the counter. CP minority refuses during a partition."""
        site = self._site(site_name)
        if not self._serving(site):
            self.refused += 1
            return None
        if self.stance is Stance.AP_LWW:
            return site.snapshot
        return sum(op.args["amount"] for op in site.ops)

    # ------------------------------------------------------------------
    # Partition lifecycle

    def partition(self) -> None:
        self.partitioned = True

    def heal(self) -> None:
        """Reconnect and reconcile according to the stance."""
        if not self.partitioned:
            return
        self.partitioned = False
        east, west = self._sites["east"], self._sites["west"]
        if self.stance is Stance.AP_LWW:
            winner, loser = (
                (east, west)
                if east.snapshot_stamp >= west.snapshot_stamp
                else (west, east)
            )
            # The loser's partition-era ops vanish with its snapshot.
            lost = [
                op.uniquifier
                for op in loser.ops.missing_from(winner.ops)
            ]
            self.lost_updates.extend(lost)
            loser.ops = OpSet(winner.ops)
            loser.snapshot = winner.snapshot
            loser.snapshot_stamp = winner.snapshot_stamp
        else:
            # CP has nothing to merge (the minority refused everything);
            # AP_OPS unions knowledge — nothing can be lost.
            east.ops.merge(west.ops)
            west.ops.merge(east.ops)
            total = sum(op.args["amount"] for op in east.ops)
            for site in (east, west):
                site.snapshot = total

    # ------------------------------------------------------------------
    # Truth

    def consistent(self) -> bool:
        """Do both sites answer the same (when both can answer)?"""
        values = [self.read(name) for name in self.SITES]
        answers = [v for v in values if v is not None]
        return len(set(answers)) <= 1

    def _peer(self, site_name: str) -> _Site:
        return self._sites["west" if site_name == "east" else "east"]
