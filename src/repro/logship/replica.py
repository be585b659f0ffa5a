"""One database site: endpoint, WAL on a disk, replayed state.

Replicas are symmetric — either side can serve (be the primary) and
either can replay the peer's shipped log. Serving-side commit writes the
transaction's records and a COMMIT record to the local WAL and flushes;
replay-side SHIP applies records in order and remembers applied
transactions by uniquifier, which is what makes re-shipping idempotent.
A batch is taken only if it picks up at or before the replay cursor.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set

from repro.errors import CrashedError, StaleEpochError
from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.storage.snapshot import (
    SnapshotStore,
    Snapshotter,
    apply_txn_record,
    recover,
)
from repro.storage.wal import WriteAheadLog


class DatabaseReplica:
    """A site in the log-shipping pair."""

    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        self.sim = sim
        self.name = name
        self.disk = Disk(sim, name=f"{name}.disk")
        self.wal = WriteAheadLog(sim, self.disk, name=f"{name}.wal")
        self.state: Dict[Any, Any] = {}
        self.last_write_time: Dict[Any, float] = {}
        self.committed_local: Set[str] = set()   # txns this site decided
        self.applied_txns: Set[str] = set()      # txns applied (own + replayed)
        self.shipped_lsn = 0                     # how far we've shipped to the peer
        self.applied_peer_lsn = 0                # how far we've applied of theirs
        self.epoch = 0                           # fencing token of our own regime
        self.fenced_below = 0                    # reject traffic older than this
        self.crashed = False
        self._staged: Dict[str, Dict[Any, Any]] = {}
        self.snapshots: Optional[SnapshotStore] = None
        self.snapshotter: Optional[Snapshotter] = None
        self.endpoint = Endpoint(network, name)
        self.endpoint.register("SHIP", self._handle_ship)
        self.endpoint.register("GET", self._handle_get)
        self.endpoint.register("FENCE", self._handle_fence)
        self.endpoint.start()

    # ------------------------------------------------------------------
    # Fencing

    @property
    def deposed(self) -> bool:
        """True once a newer regime's token has fenced this site: its own
        epoch is below the minimum it will accept."""
        return self.fenced_below > self.epoch

    def fence(self, epoch: int) -> None:
        """Refuse, from now on, any traffic stamped below ``epoch``."""
        self.fenced_below = max(self.fenced_below, epoch)

    # ------------------------------------------------------------------
    # Serving side

    def commit_transaction(self, txn_id: str, writes: Dict[Any, Any]) -> Generator[Any, Any, None]:
        """Log + flush one transaction locally. Idempotent by txn_id."""
        if self.crashed:
            raise CrashedError(f"{self.name} is crashed")
        if self.deposed:
            raise StaleEpochError(
                f"{self.name} is deposed: epoch {self.epoch} "
                f"fenced below {self.fenced_below}",
                epoch=self.epoch, current=self.fenced_below,
            )
        if txn_id in self.applied_txns:
            return
        for key, value in writes.items():
            self.wal.append("WRITE", txn_id=txn_id, key=key, value=value)
        self.wal.append("COMMIT", txn_id=txn_id)
        yield from self.wal.flush()
        self._apply(txn_id, writes)
        self.committed_local.add(txn_id)

    def _apply(self, txn_id: str, writes: Dict[Any, Any]) -> None:
        self.state.update(writes)
        for key in writes:
            self.last_write_time[key] = self.sim.now
        self.applied_txns.add(txn_id)
        if self.snapshotter is not None:
            self.snapshotter.mark_dirty()

    def unshipped_records(self) -> List[Dict[str, Any]]:
        """Durable records not yet shipped to the peer, as wire payloads."""
        records = self.wal.records_between(self.shipped_lsn, self.wal.durable_lsn)
        return [
            {"lsn": r.lsn, "kind": r.kind, "txn": r.txn_id, **r.payload}
            for r in records
        ]

    # ------------------------------------------------------------------
    # Replay side

    def _handle_ship(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        sender_epoch = msg.payload.get("epoch", 0)
        if sender_epoch < self.fenced_below:
            # A deposed regime is still shipping. Do not apply a single
            # record — tell it which regime it lost to instead.
            self.sim.metrics.inc(f"logship.{self.name}.fenced_batches")
            self.sim.trace.emit(
                self.name, "ship.rejected",
                epoch=sender_epoch, fenced_below=self.fenced_below,
                records=len(msg.payload["records"]),
            )
            return {"fenced": True, "epoch": self.fenced_below}
        records = msg.payload["records"]
        if msg.payload["after"] <= self.applied_peer_lsn:
            # It extends our replay. A batch that picks up past our cursor
            # (a restart lost what an earlier batch carried) is refused:
            # the reply says where to resume.
            for record in records:
                self.replay_record(record)
            self.applied_peer_lsn = max(self.applied_peer_lsn, records[-1]["lsn"])
            self.sim.metrics.inc(f"logship.{self.name}.ship_batches")
        return {"applied_through": self.applied_peer_lsn}

    def replay_record(self, record: Dict[str, Any]) -> None:
        """Apply one shipped record via the shared WRITE-stage/COMMIT-apply
        discipline. Already-applied txns are skipped — the uniquifier makes
        replay idempotent."""
        writes = apply_txn_record(
            self.state, self._staged, self.applied_txns,
            record["kind"], record["txn"],
            {"key": record.get("key"), "value": record.get("value")},
        )
        if writes is not None:
            for key in writes:
                self.last_write_time[key] = self.sim.now
            if self.snapshotter is not None:
                self.snapshotter.mark_dirty()

    def _handle_get(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        return {"value": self.state.get(msg.payload["key"])}

    def _handle_fence(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        self.fence(msg.payload["epoch"])
        return {"epoch": self.fenced_below}

    # ------------------------------------------------------------------
    # Snapshots (asynchronous checkpoints over the WAL)

    def enable_snapshots(self, cadence: float) -> Snapshotter:
        """Checkpoint this site's applied state every ``cadence`` seconds.

        Snapshots land on their own disk (a separate device, so checkpoint
        IO never queues behind the log arm). The loop runs on this site's
        endpoint, so a crash stops it and a restart resumes it.
        """
        if self.snapshotter is None:
            snap_disk = Disk(self.sim, name=f"{self.name}.snapdisk")
            self.snapshots = SnapshotStore(self.sim, snap_disk, name=f"{self.name}.snap")
            self.snapshotter = Snapshotter(
                self.sim, self.wal, self._snapshot_capture, self.snapshots,
                cadence=cadence, name=self.name,
            )
            self.endpoint.spawn("snapshot", self.snapshotter.run)
        return self.snapshotter

    def _snapshot_capture(self) -> Any:
        """The consistent cut: state plus everything a cold restart needs —
        in-flight staged txns (split by the cut), applied uniquifiers, and
        both shipping cursors. All copies, zero sim time."""
        meta = {
            "staged": {txn: dict(w) for txn, w in self._staged.items()},
            "applied_txns": sorted(self.applied_txns),
            "committed_local": sorted(self.committed_local),
            "applied_peer_lsn": self.applied_peer_lsn,
            "shipped_lsn": self.shipped_lsn,
            "last_write_time": dict(self.last_write_time),
        }
        return dict(self.state), meta

    # ------------------------------------------------------------------
    # Failure

    def crash(self) -> None:
        """Fail fast. The WAL's volatile tail is empty (we flush at
        commit), so the crash loses availability, not durability — the
        durable-but-unshipped tail is what gets *locked up* (§5.1)."""
        self.wal.lose_volatile()
        self._staged.clear()
        self.crashed = True
        self.endpoint.stop("crash")

    def restart(self) -> None:
        self.crashed = False
        self.endpoint.restart()

    def cold_restart(self) -> Generator[Any, Any, Dict[str, Any]]:
        """Restart after losing memory entirely: recover applied state from
        the latest snapshot plus the local WAL tail past its LSN.

        Peer-shipped records never touched the local WAL, so everything
        replayed since the snapshot's cut is *gone* until the peer re-ships
        it — the returned ``applied_peer_lsn`` is the cursor to hand to the
        peer's CATCHUP. Without snapshots this is the from-scratch path:
        full local replay and a peer re-ship from LSN 0.
        """
        start = self.sim.now
        self.state = {}
        self.last_write_time = {}
        self.committed_local = set()
        self.applied_txns = set()
        self._staged = {}
        self.applied_peer_lsn = 0
        store = self.snapshots or SnapshotStore(
            self.sim, Disk(self.sim, name=f"{self.name}.snapdisk.empty"),
            name=f"{self.name}.snap",
        )
        result = yield from recover(store, self.wal)
        self.state = result.state
        self._staged = result.staged
        self.applied_txns = result.applied_txns
        meta = result.meta
        self.committed_local = set(meta.get("committed_local", ()))
        # The local WAL holds only locally-decided txns, so every replayed
        # commit was one of ours.
        self.committed_local.update(result.committed)
        self.applied_peer_lsn = meta.get("applied_peer_lsn", 0)
        # Memory is gone: the shipping cursor is whatever the snapshot
        # knew. Rewinding only re-ships; replay idempotence absorbs it.
        self.shipped_lsn = meta.get("shipped_lsn", 0)
        self.last_write_time = dict(meta.get("last_write_time", {}))
        self.crashed = False
        self.endpoint.restart()
        duration = self.sim.now - start
        self.sim.metrics.observe(f"logship.{self.name}.recovery_time_s", duration)
        self.sim.metrics.observe(
            f"logship.{self.name}.recovery_replayed", result.replayed_records
        )
        self.sim.trace.emit(
            self.name, "cold_restart",
            snapshot_lsn=result.snapshot_lsn,
            replayed=result.replayed_records,
            duration=duration,
        )
        return {
            "snapshot_lsn": result.snapshot_lsn,
            "replayed_records": result.replayed_records,
            "applied_peer_lsn": self.applied_peer_lsn,
            "recovery_time": duration,
        }
