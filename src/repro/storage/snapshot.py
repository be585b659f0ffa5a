"""Incremental, LSN-stamped snapshots over the WAL, plus tail recovery.

The paper's §3 arc — synchronous checkpoints (1984) → log-combined
checkpoints (1986) → asynchronous shipping — ends at a question it never
answers: how does a node that *lost* its memory get it back without
replaying history from the beginning? This module is the answer, in the
shape of "Asynchronous Checkpoint for Eventually Consistent Databases"
(PAPERS.md):

- the **cut** is atomic in simulated time: read ``wal.durable_lsn``,
  copy the applied state — no yield in between, so the snapshot is a
  consistent prefix of the log;
- the **write** is service-timed and happens *after* the cut, so new
  appends continue while the checkpoint drains to disk — checkpointing
  never blocks writes (the snapshot is merely a little stale by the time
  it lands, which is fine: the tail covers the difference);
- snapshots are **incremental**: each stores only the pages changed
  since the previous one, chained by ``base_id``; the chain compacts to
  a fresh full snapshot when it grows past ``SnapshotStore.max_chain``;
- **recovery** loads the newest durable chain and replays only records
  with ``lsn > snapshot.lsn`` — time proportional to the tail, not the
  log.

:func:`apply_txn_record` is the one replay discipline (WRITE stages,
COMMIT applies, uniquifiers make it idempotent) shared by live log
shipping and recovery, which is what makes recovered state bit-identical
to never-crashed state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.storage.wal import WriteAheadLog


# ----------------------------------------------------------------------
# The shared replay discipline


def apply_txn_record(
    state: Dict[Any, Any],
    staged: Dict[Any, Dict[Any, Any]],
    applied_txns: Set[Any],
    kind: str,
    txn_id: Any,
    payload: Dict[str, Any],
) -> Optional[Dict[Any, Any]]:
    """Apply one WRITE/COMMIT record to ``state``.

    WRITE stages under its transaction; COMMIT applies the staged writes
    and remembers the uniquifier. Already-applied transactions are
    skipped, so replay is idempotent at any overlap. Returns the writes a
    COMMIT applied (callers hang bookkeeping off that), else None.
    """
    if txn_id in applied_txns:
        return None
    if kind == "WRITE":
        staged.setdefault(txn_id, {})[payload["key"]] = payload["value"]
        return None
    if kind == "COMMIT":
        writes = staged.pop(txn_id, {})
        state.update(writes)
        applied_txns.add(txn_id)
        return writes
    return None


# ----------------------------------------------------------------------
# Snapshot records and the durable store


@dataclass(frozen=True)
class SnapshotRecord:
    """One durable checkpoint: the delta since ``base_id`` (None = full),
    covering every log effect up to and including ``lsn``."""

    snapshot_id: int
    lsn: int
    base_id: Optional[int]
    delta: Dict[Any, Any]
    removed: Tuple[Any, ...]
    meta: Dict[str, Any]
    taken_at: float

    @property
    def pages(self) -> int:
        return len(self.delta) + len(self.removed)


@dataclass
class MaterializedSnapshot:
    """A chain folded back into a full state (what recovery starts from)."""

    lsn: int
    state: Dict[Any, Any]
    meta: Dict[str, Any]
    chain_length: int
    taken_at: float


class SnapshotStore:
    """A chain of incremental snapshots on a :class:`Disk`.

    Each ``install`` writes one block (the delta) plus the manifest in a
    single disk batch, so a crash during checkpointing leaves the prior
    chain intact — the write is atomic or absent, never half-applied.
    """

    MANIFEST = "snap.manifest"
    #: Snapshots in a chain before the next one is a full compaction.
    max_chain = 8

    def __init__(
        self, sim: Simulator, disk: Optional[Disk] = None, name: str = "snap"
    ) -> None:
        self.sim = sim
        self.name = name
        self.disk = disk or Disk(sim, name=f"{name}.disk")
        self._next_id = 1
        #: State as of the last installed snapshot — the diffing base.
        #: Capture-side bookkeeping only; recovery never trusts it.
        self._last_state: Dict[Any, Any] = {}
        self._chain_length = 0

    # ------------------------------------------------------------------
    # Capture side

    @property
    def latest_lsn(self) -> int:
        """Covered LSN of the newest durable snapshot (0 = none yet)."""
        manifest = self.disk.peek(self.MANIFEST)
        if not manifest:
            return 0
        record: SnapshotRecord = self.disk.peek(("snap", manifest[-1]))
        return record.lsn

    def install(
        self, state: Dict[Any, Any], lsn: int, meta: Optional[Dict[str, Any]] = None
    ) -> Generator[Any, Any, SnapshotRecord]:
        """Write one incremental snapshot covering ``lsn``.

        ``state`` must already be the caller's *copy*, cut atomically
        with ``lsn``; this method only pays the disk time. LSNs must be
        monotone — a snapshot can never cover less than its predecessor.
        """
        durable_lsn = self.latest_lsn
        if lsn < durable_lsn:
            raise SimulationError(
                f"snapshot LSN {lsn} regresses below covered {durable_lsn}"
            )
        base_manifest: List[int] = list(self.disk.peek(self.MANIFEST) or [])
        compact = not base_manifest or self._chain_length >= self.max_chain
        if compact:
            delta = dict(state)
            removed: Tuple[Any, ...] = ()
            base_id: Optional[int] = None
        else:
            delta = {
                key: value
                for key, value in state.items()
                if key not in self._last_state or self._last_state[key] != value
            }
            removed = tuple(
                sorted(key for key in self._last_state if key not in state)
            )
            base_id = base_manifest[-1]
        record = SnapshotRecord(
            snapshot_id=self._next_id,
            lsn=lsn,
            base_id=base_id,
            delta=delta,
            removed=removed,
            meta=dict(meta or {}),
            taken_at=self.sim.now,
        )
        manifest = ([record.snapshot_id] if compact
                    else base_manifest + [record.snapshot_id])
        # One batch: the block and the manifest land together or not at
        # all (Disk.write_batch is atomic against media failure).
        yield from self.disk.write_batch(
            {("snap", record.snapshot_id): record, self.MANIFEST: manifest}
        )
        self._next_id += 1
        self._last_state = dict(state)
        self._chain_length = 1 if compact else self._chain_length + 1
        self.sim.metrics.inc(f"snapshot.{self.name}.installed")
        self.sim.metrics.inc(f"snapshot.{self.name}.pages_written", record.pages)
        if compact and base_manifest:
            self.sim.metrics.inc(f"snapshot.{self.name}.compactions")
        self.sim.trace.emit(
            self.name, "snapshot.installed",
            id=record.snapshot_id, lsn=lsn, pages=record.pages,
            incremental=not compact,
        )
        return record

    # ------------------------------------------------------------------
    # Garbage collection

    def chains(self) -> List[List[SnapshotRecord]]:
        """Every chain on disk, oldest first, reconstructed from the
        blocks' ``base_id`` links (zero-time; the durable blocks are the
        truth — capture-side bookkeeping is never consulted).

        Compaction starts a fresh chain but leaves the old one's blocks
        on disk; this is what :meth:`prune` uses to find them.
        """
        records: Dict[int, SnapshotRecord] = {
            key[1]: value
            for key, value in self.disk.contents().items()
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "snap"
        }
        child: Dict[int, int] = {
            record.base_id: snapshot_id
            for snapshot_id, record in records.items()
            if record.base_id is not None
        }
        found: List[List[SnapshotRecord]] = []
        for snapshot_id, record in sorted(records.items()):
            if record.base_id is not None:
                continue
            chain = [record]
            cursor = snapshot_id
            while cursor in child:
                cursor = child[cursor]
                chain.append(records[cursor])
            found.append(chain)
        return found

    def prune(self, keep_chains: int = 1) -> Generator[Any, Any, int]:
        """Delete the blocks of all but the newest ``keep_chains`` chains.

        The live chain — the one the manifest references — is always
        among the kept ones (it is the newest), and its blocks are
        additionally excluded outright, so a prune can never drop an LSN
        the store still covers. Returns the number of blocks deleted.
        """
        if keep_chains < 1:
            raise SimulationError(
                f"prune must keep at least one chain, got {keep_chains}"
            )
        live = set(self.disk.peek(self.MANIFEST) or [])
        doomed = [
            ("snap", record.snapshot_id)
            for chain in self.chains()[:-keep_chains]
            for record in chain
            if record.snapshot_id not in live
        ]
        if not doomed:
            return 0
        deleted = yield from self.disk.delete_batch(doomed)
        self.sim.metrics.inc(f"snapshot.{self.name}.pruned_blocks", deleted)
        self.sim.trace.emit(
            self.name, "snapshot.pruned",
            blocks=deleted, keep_chains=keep_chains,
        )
        return deleted

    # ------------------------------------------------------------------
    # Recovery side

    def materialize(self) -> Generator[Any, Any, Optional[MaterializedSnapshot]]:
        """Disk-timed load of the newest chain, folded oldest-first."""
        manifest = yield from self.disk.read(self.MANIFEST)
        if not manifest:
            return None
        blocks = yield from self.disk.read_batch(
            [("snap", snapshot_id) for snapshot_id in manifest]
        )
        return self._fold([blocks[("snap", sid)] for sid in manifest])

    def peek_materialize(self) -> Optional[MaterializedSnapshot]:
        """Zero-time fold (tests and post-mortem tooling)."""
        manifest = self.disk.peek(self.MANIFEST)
        if not manifest:
            return None
        return self._fold([self.disk.peek(("snap", sid)) for sid in manifest])

    @staticmethod
    def _fold(chain: List[SnapshotRecord]) -> MaterializedSnapshot:
        state: Dict[Any, Any] = {}
        for record in chain:
            state.update(record.delta)
            for key in record.removed:
                state.pop(key, None)
        newest = chain[-1]
        return MaterializedSnapshot(
            lsn=newest.lsn,
            state=state,
            meta=dict(newest.meta),
            chain_length=len(chain),
            taken_at=newest.taken_at,
        )


# ----------------------------------------------------------------------
# The asynchronous checkpointer


class Snapshotter:
    """Periodic asynchronous checkpoints of a component over its WAL.

    ``capture`` returns the component's ``(state, meta)`` — already
    copied, because the cut happens inside :meth:`take` with no yields:
    read the durable LSN, call capture, and only then start the timed
    disk write. Writes that arrive during the write simply belong to the
    next snapshot's tail.
    """

    def __init__(
        self,
        sim: Simulator,
        wal: Optional[WriteAheadLog],
        capture: Callable[[], Tuple[Dict[Any, Any], Dict[str, Any]]],
        store: SnapshotStore,
        cadence: float,
        name: str = "snapshotter",
        cursor: Optional[Callable[[], int]] = None,
        keep_chains: Optional[int] = None,
    ) -> None:
        if cadence <= 0:
            raise SimulationError(f"snapshot cadence {cadence} must be positive")
        if wal is None and cursor is None:
            raise SimulationError("snapshotter needs a WAL or a cursor")
        if keep_chains is not None and keep_chains < 1:
            raise SimulationError(
                f"snapshot retention must keep at least one chain, got {keep_chains}"
            )
        self.sim = sim
        self.wal = wal
        self.cursor = cursor
        self.capture = capture
        self.store = store
        self.cadence = cadence
        self.keep_chains = keep_chains
        self.name = name
        self._proc: Optional[Any] = None
        self._dirty = False
        self._wake = sim.event(f"snapshot.wake.{name}")

    def mark_dirty(self) -> None:
        """Tell the loop the component's state changed since the last cut.
        Components call this after applying writes; the loop parks on it
        when idle (event-driven, so an idle system's event heap drains)."""
        self._dirty = True
        if not self._wake.triggered:
            self._wake.trigger(None)

    def take(self) -> Generator[Any, Any, SnapshotRecord]:
        """One checkpoint: atomic cut, then the timed write."""
        self._dirty = False  # changes during the install belong to the next cut
        cut_lsn = self.cursor() if self.cursor is not None else self.wal.durable_lsn
        state, meta = self.capture()
        record = yield from self.store.install(state, cut_lsn, meta)
        if self.keep_chains is not None:
            # Automatic retention: superseded chains are garbage the
            # moment a compaction starts a new one — prune them as part
            # of the checkpoint instead of leaking disk until an operator
            # remembers to. The live chain is never touched.
            yield from self.store.prune(self.keep_chains)
        # The loss window this checkpoint leaves open: log records past
        # the cut exist only in the WAL (volatile tail included). With a
        # bare cursor (no WAL) there is no durability horizon to trail.
        tail = (self.wal.last_lsn - cut_lsn) if self.wal is not None else 0
        self.sim.metrics.observe(f"snapshot.{self.name}.tail_at_install", tail)
        return record

    def run(self) -> Generator[Any, Any, None]:
        """The checkpoint loop: park until something changed, wait one
        cadence (writes arriving meanwhile are covered by the cut), then
        checkpoint. At most one snapshot per cadence."""
        while True:
            if not self._dirty:
                self._wake = self.sim.event(f"snapshot.wake.{self.name}")
                yield self._wake
            yield Timeout(self.cadence)
            yield from self.take()

    def start(self) -> Any:
        if self._proc is None or not self._proc.alive:
            self._proc = self.sim.spawn(self.run(), name=f"snapshot.{self.name}")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("snapshotter stopped")
        self._proc = None


# ----------------------------------------------------------------------
# Recovery


@dataclass
class RecoveryResult:
    """What one snapshot + tail recovery produced."""

    state: Dict[Any, Any]
    staged: Dict[Any, Dict[Any, Any]]
    applied_txns: Set[Any]
    meta: Dict[str, Any]
    snapshot_lsn: int
    replayed_records: int
    replayed_txns: int
    duration: float
    #: LSNs the recovery covered: everything <= recovered_lsn is in state.
    recovered_lsn: int = 0
    committed: List[Any] = field(default_factory=list)


def recover(
    store: SnapshotStore, wal: WriteAheadLog
) -> Generator[Any, Any, RecoveryResult]:
    """Load the latest snapshot, replay only the WAL tail past its LSN.

    With no snapshot installed this degrades to straight-line replay of
    the whole durable log — the from-scratch path this module exists to
    retire. Records are folded through the WRITE/COMMIT transaction
    discipline of :func:`apply_txn_record`.
    """
    start = wal.sim.now
    snapshot = yield from store.materialize()
    if snapshot is not None:
        state = dict(snapshot.state)
        meta = dict(snapshot.meta)
        staged = {
            txn: dict(writes)
            for txn, writes in meta.pop("staged", {}).items()
        }
        applied: Set[Any] = set(meta.pop("applied_txns", ()))
        from_lsn = snapshot.lsn
    else:
        state, meta, staged, applied, from_lsn = {}, {}, {}, set(), 0
    tail = yield from wal.read_tail(from_lsn)
    committed: List[Any] = []
    for record in tail:
        writes = apply_txn_record(
            state, staged, applied, record.kind, record.txn_id, record.payload
        )
        if writes is not None:
            committed.append(record.txn_id)
    duration = wal.sim.now - start
    wal.sim.metrics.inc(f"recovery.{wal.name}.runs")
    wal.sim.metrics.observe(f"recovery.{wal.name}.replayed_records", len(tail))
    wal.sim.metrics.observe(f"recovery.{wal.name}.duration_s", duration)
    wal.sim.trace.emit(
        wal.name, "recovery.complete",
        snapshot_lsn=from_lsn, replayed=len(tail), duration=duration,
    )
    return RecoveryResult(
        state=state,
        staged=staged,
        applied_txns=applied,
        meta=meta,
        snapshot_lsn=from_lsn,
        replayed_records=len(tail),
        replayed_txns=len(committed),
        duration=duration,
        recovered_lsn=max(from_lsn, tail[-1].lsn if tail else from_lsn),
        committed=committed,
    )
