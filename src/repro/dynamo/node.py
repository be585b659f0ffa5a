"""One Dynamo storage node: sibling storage plus hinted handoff.

Versions cross the fabric by reference. A PUT carries
``{"key": …, "version": VersionedValue}`` (plus ``hint_for`` on a
sloppy-quorum fallback), and the node stores the very object it was
sent, so the replicas of one write share one version. A GET replies
``{"versions": <the stored frontier tuple>}``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.storage.snapshot import SnapshotStore, Snapshotter
from repro.dynamo.versions import Frontier, VersionedValue, prune_dominated

#: Hint delivery: one retry on a half-second timer. Undelivered hints
#: stay queued for the next pass, so the pass cadence is the backoff.
HINT_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)

#: Exceptions one peer's failure shows up as, mid-round: no reply in time,
#: a remote error, or our own endpoint dying under us.
_PEER_ERRORS = (TimeoutError_, RpcError, CrashedError)


class DynamoNode:
    """Stores, per key, the sibling frontier of versioned blobs.

    ``hints`` holds writes accepted on behalf of a dead intended owner
    (sloppy quorum); :meth:`deliver_hints` pushes them home when the
    owner is reachable again.
    """

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.store: Dict[str, Frontier] = {}
        self.hints: List[Tuple[str, str, VersionedValue]] = []  # (intended, key, version)
        self.op_seq = 0  # local mutation counter: the snapshot cursor
        self.snapshots: Optional[SnapshotStore] = None
        self.snapshotter: Optional[Snapshotter] = None
        self.endpoint = Endpoint(network, name)
        self.endpoint.register("PUT", self._handle_put)
        self.endpoint.register("GET", self._handle_get)
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
        if self.snapshotter is not None:
            self.snapshotter.mark_dirty()

    def versions_of(self, key: str) -> Frontier:
        """The stored frontier itself: a tuple, so no reader can change it."""
        return self.store.get(key, ())

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

    # ------------------------------------------------------------------
    # Hinted handoff

    def deliver_hints(self) -> Any:
        """A generator process: push each hint to its intended owner if
        reachable; keep for later those whose owner is cut off or fails
        (no reply, a remote error, our own endpoint dying). Anything else
        is a bug and propagates. Returns delivered count."""
        remaining: List[Tuple[str, str, VersionedValue]] = []
        delivered = 0
        for intended, key, version in self.hints:
            if not self.network.reachable(self.name, intended):
                remaining.append((intended, key, version))
                continue
            try:
                yield from self.endpoint.call(
                    intended, "PUT", {"key": key, "version": version},
                    policy=HINT_POLICY,
                )
                delivered += 1
            except _PEER_ERRORS + (SimulationError,):
                remaining.append((intended, key, version))
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
