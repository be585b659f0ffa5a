"""Membership opinions and process pairs.

The paper's failure model is fail-fast (§2.2): "a component is either
functioning correctly or simply stops functioning." Who is *believed* up
is nobody's fact: each observer holds a :class:`MembershipView`, spread
as rumor by :class:`MembershipGossip`. :class:`PairedAlgorithm` is §2's
process pair, checkpointing to its backup at a :class:`CheckpointCadence`.

Crashing things is not done here: each protocol node has its own
``crash()``/``restart()``, and the one adapter that puts them behind a
common shape for fault plans is :class:`repro.chaos.harness.Crashable`.
"""

from repro.cluster.gossip_membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    MemberEntry,
    MembershipGossip,
    MembershipView,
    rumor_wins,
    views_converged,
)
from repro.cluster.process_pair import (
    CheckpointCadence,
    PairedAlgorithm,
    PairResult,
)

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "MemberEntry",
    "MembershipView",
    "MembershipGossip",
    "rumor_wins",
    "views_converged",
    "CheckpointCadence",
    "PairedAlgorithm",
    "PairResult",
]
