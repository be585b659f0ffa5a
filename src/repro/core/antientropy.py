"""Anti-entropy: "eventually we'll talk and be consistent" (§7.6).

Two forms:

- :func:`sync_replicas` — one bidirectional exchange between two
  replicas: each integrates what the other has that it lacks. Returns the
  apologies surfaced by the merge.
- :class:`GossipSchedule` — installs periodic pairwise syncs on a
  simulator.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.guesses import Apology
from repro.core.replica import Replica
from repro.errors import SimulationError
from repro.sim.scheduler import Simulator


def sync_replicas(a: Replica, b: Replica) -> List[Apology]:
    """Bidirectional merge; returns all apologies generated on both sides."""
    apologies = []
    apologies.extend(b.integrate(a.ops.missing_from(b.ops)))
    apologies.extend(a.integrate(b.ops.missing_from(a.ops)))
    return apologies


def sync_all(replicas: Sequence[Replica], rounds: int = 1) -> List[Apology]:
    """Ring-sync all replicas ``rounds`` times (enough rounds → converged)."""
    apologies: List[Apology] = []
    for _ in range(rounds):
        for left, right in zip(replicas, list(replicas[1:]) + [replicas[0]]):
            apologies.extend(sync_replicas(left, right))
    return apologies


def converged(replicas: Sequence[Replica]) -> bool:
    """Same knowledge everywhere?"""
    if not replicas:
        return True
    reference = replicas[0].ops.uniquifiers()
    return all(r.ops.uniquifiers() == reference for r in replicas[1:])


class GossipSchedule:
    """Periodic pairwise syncs on the simulator clock.

    Each period, every adjacent pair (ring order) syncs. Gossip stops
    after ``until`` (required, so the event heap drains).
    """

    def __init__(
        self,
        sim: Simulator,
        replicas: Sequence[Replica],
        period: float,
        until: float,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"gossip period must be positive, got {period}")
        self.sim = sim
        self.replicas = list(replicas)
        self.period = period
        self.until = until
        self.apologies: List[Apology] = []
        self.syncs_done = 0

    def install(self) -> None:
        when = self.period
        while when <= self.until:
            self.sim.schedule_at(when, self._round)
            when += self.period

    def _round(self) -> None:
        pairs = list(zip(self.replicas, self.replicas[1:] + self.replicas[:1]))
        for left, right in pairs:
            if left is right:
                continue
            self.apologies.extend(sync_replicas(left, right))
            self.syncs_done += 1
        self.sim.metrics.inc("gossip.rounds")
