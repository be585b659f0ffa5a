"""Anti-entropy: "eventually we'll talk and be consistent" (§7.6).

Two forms:

- :func:`sync_replicas` — one bidirectional exchange between two
  replicas: each integrates what the other has that it lacks. Returns the
  apologies surfaced by the merge. :func:`sync_all` runs it round a ring.
- :func:`gossip_every` — that ring on a simulator timer. It merges
  directly, not over the fabric: E5 and E12 count rounds, not messages.
"""

from __future__ import annotations

from typing import List, Sequence

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


def gossip_every(
    sim: Simulator, replicas: Sequence[Replica], period: float, until: float
) -> None:
    """:func:`sync_all` every ``period`` through ``until`` (required, so the
    heap drains). Direct merges, not messages: E5 and E12 count rounds."""
    if period <= 0:
        raise SimulationError(f"bad gossip period {period}")

    def gossip_round() -> None:
        sync_all(replicas)
        sim.metrics.inc("gossip.rounds")

    when = period
    while when <= until:
        sim.schedule_at(when, gossip_round)
        when += period
