"""One Dynamo storage node: sibling storage, hinted handoff and both
ends of the Merkle exchange.

Versions cross the fabric by reference. A PUT carries
``{"key": …, "version": VersionedValue}`` (plus ``hint_for`` on a
sloppy-quorum fallback), and the node stores the very object it was
sent, so the replicas of one write share one version. A GET replies
``{"versions": <the stored frontier tuple>}``, a SYNC_ARCS entry is
``{"key": …, "version": …}``.

A node holds the shared ring, key-position memo and N, so it knows the
keys it owns. It keeps an :class:`~repro.dynamo.merkle.ArcIndex` of its
store from its first exchange on, bar a transfer it starts; a write only
marks it touched, and a cold crash or restart drops it with the store. An
exchange learns that a peer is down only from going unanswered; hint
delivery still asks the fabric, or each pass would pay a timeout per
hint held for a dead owner.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.storage.snapshot import SnapshotStore, Snapshotter
from repro.dynamo.merkle import ArcIndex
from repro.dynamo.ring import Arc, HashRing, RingPositions
from repro.dynamo.versions import Frontier, VersionedValue, prune_dominated

#: Node-to-node traffic (hint delivery, anti-entropy pushes, Merkle
#: exchanges): one retry on a half-second timer. Undelivered hints stay
#: queued for the next pass, so the pass cadence is their backoff.
REPLICATION_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)

#: Exceptions one peer's failure shows up as, mid-round: no reply in time,
#: a remote error, or our own endpoint dying under us.
_PEER_ERRORS = (TimeoutError_, RpcError, CrashedError)


class DynamoNode:
    """Stores, per key, the sibling frontier of versioned blobs, and
    repairs it with :meth:`exchange`.

    ``hints`` holds writes accepted on behalf of a dead intended owner
    (sloppy quorum); :meth:`deliver_hints` pushes them home when the
    owner is reachable again.
    """

    def __init__(
        self, sim: Simulator, network: Network, name: str,
        ring: HashRing, positions: RingPositions, n: int,
    ) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.ring, self.positions, self.n = ring, positions, n
        self.store: Dict[str, Frontier] = {}
        self.hints: List[Tuple[str, str, VersionedValue]] = []  # (intended, key, version)
        self.op_seq = 0  # local mutation counter: the snapshot cursor
        self.index: Optional[ArcIndex] = None
        self.snapshots: Optional[SnapshotStore] = None
        self.snapshotter: Optional[Snapshotter] = None
        self.endpoint = Endpoint(network, name)
        self.endpoint.register("PUT", self._handle_put)
        self.endpoint.register("GET", self._handle_get)
        self.endpoint.register("DIGESTS", self._handle_digests)
        self.endpoint.register("SYNC_ARCS", self._handle_sync)
        self.endpoint.start()

    # ------------------------------------------------------------------
    # Local storage

    def store_version(self, key: str, version: VersionedValue) -> None:
        existing = self.store.get(key)
        # A key's first version is its whole frontier (the preload path).
        self.store[key] = (
            tuple(prune_dominated(existing + (version,))) if existing else (version,)
        )
        self.op_seq += 1
        if self.index is not None:
            self.index.touched.add(key)
        if self.snapshotter is not None:
            self.snapshotter.mark_dirty()

    def versions_of(self, key: str) -> Frontier:
        """The stored frontier itself: a tuple, so no reader can change it."""
        return self.store.get(key, ())

    def owners(self, key: str) -> List[str]:
        """A stored key's strict top-N owners under the current ring,
        from its memoised position — no hashing, no ring walk."""
        return self.ring.owners_at(self.positions[key], self.n)

    # ------------------------------------------------------------------
    # Handlers

    def _handle_put(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        key = msg.payload["key"]
        version = msg.payload["version"]
        hint_for: Optional[str] = msg.payload.get("hint_for")
        if hint_for and hint_for != self.name:
            self.hints.append((hint_for, key, version))
            self.sim.metrics.inc("dynamo.hinted_writes")
        self.store_version(key, version)
        return {"stored": True}

    def _handle_get(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        return {"versions": self.versions_of(msg.payload["key"])}

    def _handle_digests(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        return {"digests": self._arc_index().digests_of(msg.payload["arcs"])}

    def _handle_sync(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        shipped = msg.payload["versions"]
        _kept, integrated = self._integrate(shipped)
        # Our versions of the same arcs, less those the initiator sent.
        sent = {(entry["key"], entry["version"].clock) for entry in shipped}
        reply = [entry for entry in self._wire(msg.payload["arcs"])
                 if (entry["key"], entry["version"].clock) not in sent]
        return {"versions": reply, "integrated": integrated}

    # ------------------------------------------------------------------
    # Merkle exchange (per-arc digests, then the versions that differ)

    def _arc_index(self) -> ArcIndex:
        """This node's per-arc digests, built at its first exchange."""
        if self.index is None:
            self.index = ArcIndex(self.store, self.ring, self.positions)
        return self.index

    def reshaped(self) -> None:
        """The ring changed: forget the digests of arcs that are gone."""
        if self.index is not None:
            self.index.reshaped()

    def leftover_arcs(self) -> Dict[str, List[Arc]]:
        """Per current owner, the arcs of the current ring on which this
        node stores a key: what a leaver still has to hand over."""
        arc_at, positions = self.ring.arc_at, self.positions
        by_owner: Dict[str, List[Arc]] = {}
        for arc in sorted({arc_at(positions[key]) for key in self.store}):
            for owner in self.ring.owners_at(arc[0], self.n):
                by_owner.setdefault(owner, []).append(arc)
        return by_owner

    def _wire(self, scopes: Sequence[Arc]) -> List[Dict[str, Any]]:
        """The SYNC_ARCS payload: one ``{"key", "version"}`` entry per
        version this node stores on ``scopes``, the version itself."""
        index, store = self._arc_index(), self.store
        return [
            {"key": key, "version": version}
            for start, end in scopes for key in index.keys_in(start, end)
            for version in store[key]
        ]

    def _integrate(self, entries: Sequence[Dict[str, Any]]) -> Tuple[int, int]:
        """Store the entries whose key this node owns under the *current*
        ring (a reshape mid-flight must not plant data on a node that just
        lost the range). Returns (entries stored, those not yet covered)."""
        kept = fresh = 0
        for entry in entries:
            key = entry["key"]
            if self.name not in self.owners(key):
                continue
            version = entry["version"]
            kept += 1
            if not self._holds(key, version.clock):
                fresh += 1
            self.store_version(key, version)
        return kept, fresh

    def _holds(self, key: str, clock: Any) -> bool:
        """Whether this node already covers a version (some stored clock
        descends it) — re-shipping it moves no new information."""
        return any(v.clock.descends(clock) for v in self.versions_of(key))

    def exchange(
        self, peer: str, arcs: Sequence[Arc],
    ) -> Generator[Any, Any, Dict[str, Any]]:
        """One digest-first Merkle exchange with ``peer`` over ``arcs``
        (the ring arcs both own, a transfer's moved ranges, or a leaver's
        leftovers), the pair primitive under every repair: one DIGESTS
        call carrying the arcs, then, if any digest differs, one
        SYNC_ARCS that ships our versions of every divergent arc and
        integrates the peer's reply. Nothing is sent while our own
        endpoint is down; a peer (or our endpoint) failing mid-exchange
        ends it — counted, not raised.

        Returns raw facts for the caller to report as it sees fit:
        messages answered, entries ``shipped``, reply entries ``kept``
        and how many of those were ``fresh`` (not already covered here),
        shipped entries the peer ``integrated`` as new, ``peer_failed``.
        """
        facts = {"digest_msgs": 0, "sync_msgs": 0, "shipped": 0, "kept": 0,
                 "fresh": 0, "integrated": 0, "peer_failed": False}
        if not arcs or not self.endpoint.serving:
            return facts
        try:
            reply = yield from self.endpoint.call(
                peer, "DIGESTS", {"arcs": arcs}, policy=REPLICATION_POLICY,
            )
        except _PEER_ERRORS + (SimulationError,):
            return self._peer_failed(facts)
        facts["digest_msgs"] += 1
        mine = self._arc_index().digests_of(arcs)
        divergent = [
            arc for arc, ours, theirs in zip(arcs, mine, reply["digests"])
            if ours != theirs
        ]
        if not divergent:
            return facts
        payload = self._wire(divergent)
        try:
            sync_reply = yield from self.endpoint.call(
                peer, "SYNC_ARCS", {"arcs": divergent, "versions": payload},
                policy=REPLICATION_POLICY,
            )
        except _PEER_ERRORS + (SimulationError,):
            return self._peer_failed(facts)
        facts["sync_msgs"] += 1
        facts["shipped"] += len(payload)
        facts["integrated"] += sync_reply["integrated"]
        facts["kept"], facts["fresh"] = self._integrate(sync_reply["versions"])
        return facts

    def transfer(
        self, peer: str, arcs: Sequence[Arc],
    ) -> Generator[Any, Any, Dict[str, Any]]:
        """A one-off :meth:`exchange` (a join's pull, a decommission's push)
        that keeps no index this node had to build for it."""
        unindexed = self.index is None
        facts = yield from self.exchange(peer, arcs)
        if unindexed:
            self.index = None
        return facts

    def _peer_failed(self, facts: Dict[str, Any]) -> Dict[str, Any]:
        facts["peer_failed"] = True
        self.sim.metrics.inc("dynamo.anti_entropy_errors")
        return facts

    # ------------------------------------------------------------------
    # Hinted handoff

    def deliver_hints(self) -> Any:
        """A generator process: push each hint to its intended owner if
        reachable; keep for later those whose owner is cut off or fails
        (no reply, a remote error, our own endpoint dying). A hint whose
        owner no longer owns the key (it left the ring, or a reshape
        moved the key) is re-aimed at the key's current owners, or
        dropped when this node is one of them: it holds the version, and
        anti-entropy spreads it. Anything else is a bug and propagates.
        Returns delivered count."""
        remaining: List[Tuple[str, str, VersionedValue]] = []
        delivered = 0
        for intended, key, version in self.hints:
            owners = self.owners(key)
            if intended in owners:
                targets = [intended]
            elif self.name in owners:
                continue
            else:
                targets = owners
            for target in targets:
                if not self.network.reachable(self.name, target):
                    remaining.append((target, key, version))
                    continue
                try:
                    yield from self.endpoint.call(
                        target, "PUT", {"key": key, "version": version},
                        policy=REPLICATION_POLICY,
                    )
                    delivered += 1
                except _PEER_ERRORS + (SimulationError,):
                    remaining.append((target, key, version))
        self.hints = remaining
        if delivered:
            self.sim.metrics.inc("dynamo.hints_delivered", delivered)
        return delivered

    # ------------------------------------------------------------------
    # Snapshots (rejoin seeding)

    def enable_snapshots(self, cadence: float) -> Snapshotter:
        """Checkpoint the sibling store every ``cadence`` seconds, keyed by
        the local mutation counter. A cold-crashed node seeds its rejoin
        from the latest snapshot; Merkle anti-entropy closes what the
        checkpoint missed — instead of resyncing the whole keyspace.
        Each checkpoint prunes all but the two newest chains. The loop
        runs on the node's endpoint, so a crash stops it."""
        if self.snapshotter is None:
            self.snapshots = SnapshotStore(
                self.sim, Disk(self.sim, name=f"{self.name}.snapdisk"),
                name=f"{self.name}.snap",
            )
            self.snapshotter = Snapshotter(
                self.sim, None, self._snapshot_capture, self.snapshots,
                cadence=cadence, name=self.name, cursor=lambda: self.op_seq,
                keep_chains=2,
            )
            self.endpoint.spawn("snapshot", self.snapshotter.run)
        return self.snapshotter

    def _snapshot_capture(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        # Frontiers are immutable tuples: the checkpoint shares them.
        state = dict(self.store)
        meta = {
            "hints": list(self.hints),
            "op_seq": self.op_seq,
        }
        return state, meta

    # ------------------------------------------------------------------
    # Failure

    def crash(self) -> None:
        """Fail fast: stop serving. The store is modelled as durable (a
        Dynamo node recovers its local disk on restart); hints are
        volatile bookkeeping we conservatively keep."""
        self.endpoint.stop("crash")

    def restart(self) -> None:
        self.endpoint.restart()

    def cold_crash(self) -> int:
        """Fail losing the in-memory store (the node's 'disk' burned with
        it, or it never had one). Returns the version count lost. Rejoin
        is :meth:`cold_restart`: snapshot seed + anti-entropy for the rest."""
        lost = sum(len(v) for v in self.store.values())
        self.store = {}
        self.index = None
        self.hints = []
        self.op_seq = 0
        self.endpoint.stop("crash")
        self.sim.metrics.inc(f"dynamo.{self.name}.cold_crashes")
        self.sim.trace.emit(self.name, "cold_crash", versions_lost=lost)
        return lost

    def cold_restart(self) -> Generator[Any, Any, Dict[str, Any]]:
        """Rejoin from the latest snapshot (disk-timed load). Everything
        written since the cut is *missing* until hinted handoff and Merkle
        rounds repair it — but the bulk never crosses the network."""
        start = self.sim.now
        seeded = 0
        snapshot_seq = 0
        if self.snapshots is not None:
            snapshot = yield from self.snapshots.materialize()
            if snapshot is not None:
                self.store = dict(snapshot.state)
                self.index = None
                self.hints = list(snapshot.meta.get("hints", ()))
                snapshot_seq = snapshot.meta.get("op_seq", snapshot.lsn)
                seeded = sum(len(v) for v in self.store.values())
        # The cursor must stay monotone past the recovered cut, or the
        # next checkpoint would look like a regression.
        self.op_seq = max(self.op_seq, snapshot_seq)
        self.endpoint.restart()
        duration = self.sim.now - start
        self.sim.metrics.observe(f"dynamo.{self.name}.recovery_time_s", duration)
        self.sim.metrics.inc("dynamo.rejoin_seeded_versions", seeded)
        self.sim.trace.emit(
            self.name, "cold_restart", seeded=seeded, duration=duration
        )
        return {"seeded_versions": seeded, "recovery_time": duration}
