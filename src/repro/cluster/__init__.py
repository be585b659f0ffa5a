"""Nodes and failures.

The paper's failure model is fail-fast (§2.2): "a component is either
functioning correctly or simply stops functioning." A :class:`Node` groups
the volatile pieces that die together — its processes, its network
endpoint, its in-memory buffers — behind ``crash()``/``restart()``.
:class:`FailureInjector` drives deterministic or randomized crash
schedules. Who is *believed* up is nobody's fact: each observer holds a
:class:`MembershipView`, spread as rumor by :class:`MembershipGossip`.
"""

from repro.cluster.node import Node
from repro.cluster.failure import FailureInjector, CrashPlan
from repro.cluster.gossip_membership import (
    ALIVE,
    DEAD,
    LEFT,
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
    "Node",
    "FailureInjector",
    "CrashPlan",
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "MemberEntry",
    "MembershipView",
    "MembershipGossip",
    "rumor_wins",
    "views_converged",
    "CheckpointCadence",
    "PairedAlgorithm",
    "PairResult",
]
