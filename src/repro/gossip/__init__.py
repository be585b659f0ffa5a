"""Networked anti-entropy: replicas gossip over the simulated fabric.

:mod:`repro.core.antientropy` merges replica objects directly — right for
algorithm-level experiments. This package is the deployed version: each
:class:`~repro.core.replica.Replica` sits behind a network endpoint and
runs push-pull exchanges with peers over links that have latency, loss,
and partitions. "The work is propagated to other replicas as connectivity
allows" (§6.3) — here connectivity genuinely varies.

Protocol (per round, initiator → peer):

1. ``DIGEST``: the initiator sends the uniquifier set it holds.
2. The peer replies with the operations the initiator lacks, plus the
   uniquifiers the peer itself is missing.
3. ``OPS``: the initiator pushes those missing operations back.

The reply and the push carry the operations themselves, by reference.
Both sides integrate through their replicas, so business rules fire and
wrong guesses settle in the cluster's one ledger, exactly as in the
direct-merge model.
"""

from repro.gossip.node import GossipNode
from repro.gossip.cluster import GossipCluster

__all__ = ["GossipNode", "GossipCluster"]
