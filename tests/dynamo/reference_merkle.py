"""Reference model: the two Merkle pair-exchange bodies ``DynamoCluster``
carried before they were folded into ``_exchange`` — ``run_merkle_round``
and ``_range_sync``, frozen from commit 61b9fc7 as free functions over a
cluster (``self``).

Test-only. ``test_exchange_differential.py`` binds these onto one of two
identically driven clusters and requires the same stores, stats,
counters, clock and kernel steps as the production methods on the other.

One adaptation, because the frozen peer test named the oracle the same
commit deleted: ``self.views is not None`` reads ``self.membership_gossips``
(is dissemination attached), and ``self.alive`` is the cluster's
fabric-attachment truth. Everything from the DIGESTS call down is verbatim,
but for the two decodes of a SYNC_BUCKET reply entry: the production
``_wire_versions`` now ships the stored version itself, so each reads
``entry["version"]`` where the frozen body rebuilt it from a value and a
clock dict.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence, Tuple

from repro.dynamo.cluster import (
    _PEER_ERRORS,
    REPLICATION_POLICY,
    _wire_versions,
)
from repro.dynamo.merkle import check_buckets, entry_digests
from repro.dynamo.node import DynamoNode
from repro.errors import SimulationError


def run_merkle_round(self, buckets: int = 16) -> Generator[Any, Any, Dict[str, int]]:
    """One digest-first anti-entropy pass over every live node pair.

    Returns message accounting: digest exchanges vs bucket payloads —
    once converged, a round costs only the digest messages."""
    check_buckets(buckets)
    stats = {"digest_msgs": 0, "bucket_msgs": 0, "versions_moved": 0}
    names = sorted(self.nodes)
    # Same per-round isolation as run_anti_entropy_round: once a peer
    # times out (a soft cut reachable() cannot see), skip its other
    # pairings this round instead of paying the timeout N more times.
    unresponsive: set = set()
    for i, a_name in enumerate(names):
        for b_name in names[i + 1:]:
            if a_name in unresponsive or b_name in unresponsive:
                continue
            if not self.alive(a_name):
                continue
            # The initiator judges its peer by its own local view
            # when gossip membership is attached; the oracle otherwise.
            if self.membership_gossips:
                if not self._usable_by(a_name, b_name):
                    continue
            elif not self.alive(b_name):
                continue
            if not self.network.reachable(a_name, b_name):
                continue
            a = self.nodes[a_name]
            try:
                reply = yield from a.endpoint.call(
                    b_name, "DIGESTS", {"buckets": buckets},
                    policy=REPLICATION_POLICY,
                )
            except _PEER_ERRORS + (SimulationError,):
                # A peer (or our own endpoint) failing mid-round must
                # not abort the round: the remaining pairs still sync.
                unresponsive.add(b_name)
                self.sim.metrics.inc("dynamo.anti_entropy_errors")
                continue
            stats["digest_msgs"] += 1
            theirs = reply["digests"]
            shared = self._view(a, sharers={a_name, b_name})
            mine = entry_digests(shared, buckets)
            for bucket in range(buckets):
                if mine[bucket] == theirs[bucket]:
                    continue
                payload = _wire_versions(shared, bucket, buckets)
                try:
                    sync_reply = yield from a.endpoint.call(
                        b_name, "SYNC_BUCKET",
                        {"bucket": bucket, "buckets": buckets, "versions": payload},
                        policy=REPLICATION_POLICY,
                    )
                except _PEER_ERRORS + (SimulationError,):
                    unresponsive.add(b_name)
                    self.sim.metrics.inc("dynamo.anti_entropy_errors")
                    break
                stats["bucket_msgs"] += 1
                stats["versions_moved"] += len(payload)
                for entry in sync_reply["versions"]:
                    key = entry["key"]
                    if a_name not in self._owners(key):
                        continue
                    a.store_version(key, entry["version"])
                    stats["versions_moved"] += 1
    self.sim.metrics.inc("dynamo.merkle_digest_msgs", stats["digest_msgs"])
    self.sim.metrics.inc("dynamo.merkle_bucket_msgs", stats["bucket_msgs"])
    return stats


def _range_sync(
    self,
    node: DynamoNode,
    peer: str,
    ranges: Sequence[Tuple[int, int]],
    buckets: int = 16,
) -> Generator[Any, Any, Dict[str, int]]:
    """One range-scoped Merkle exchange with ``peer``: the same
    DIGESTS/SYNC_BUCKET verbs anti-entropy uses, restricted to the
    moved arcs. Both sides end up holding the ranges' frontier (each
    stores only what it owns under the current ring)."""
    stats = {"versions_moved": 0, "digest_msgs": 0, "bucket_msgs": 0}
    range_payload = [[start, end] for start, end in ranges]
    try:
        reply = yield from node.endpoint.call(
            peer, "DIGESTS",
            {"buckets": buckets, "ranges": range_payload},
            policy=REPLICATION_POLICY,
        )
    except _PEER_ERRORS + (SimulationError,):
        self.sim.metrics.inc("dynamo.anti_entropy_errors")
        return stats
    stats["digest_msgs"] += 1
    theirs = reply["digests"]
    view = self._view(node, ranges=range_payload)
    mine = entry_digests(view, buckets)
    for bucket in range(buckets):
        if mine[bucket] == theirs[bucket]:
            continue
        payload = _wire_versions(view, bucket, buckets)
        try:
            sync_reply = yield from node.endpoint.call(
                peer, "SYNC_BUCKET",
                {"bucket": bucket, "buckets": buckets,
                 "ranges": range_payload, "versions": payload},
                policy=REPLICATION_POLICY,
            )
        except _PEER_ERRORS + (SimulationError,):
            self.sim.metrics.inc("dynamo.anti_entropy_errors")
            break
        stats["bucket_msgs"] += 1
        # Count versions that changed someone's state, not wire
        # payloads: syncing the same arc with a second source ships
        # bytes but moves no new information.
        stats["versions_moved"] += sync_reply.get("integrated", 0)
        for entry in sync_reply["versions"]:
            key = entry["key"]
            if node.name not in self._owners(key):
                continue
            version = entry["version"]
            if not self._holds(node, key, version.clock):
                stats["versions_moved"] += 1
            node.store_version(key, version)
    return stats
