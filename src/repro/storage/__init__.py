"""Simulated durable storage.

The paper's failure boundary separates *volatile* state (a process's
memory, lost on fail-fast crash) from *durable* state (what made it to
disk). This package models exactly that line:

- :class:`Disk` — a service-timed device; whatever was written survives
  crashes of the processes using it.
- :class:`WriteAheadLog` — LSN-stamped records with an explicit volatile
  tail; ``flush`` moves the durability horizon.
- :mod:`snapshot` — incremental LSN-stamped checkpoints over the WAL and
  the snapshot + tail-replay recovery path.
"""

from repro.storage.disk import Disk
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.storage.snapshot import (
    MaterializedSnapshot,
    RecoveryResult,
    SnapshotRecord,
    SnapshotStore,
    Snapshotter,
    apply_txn_record,
    recover,
)

__all__ = [
    "Disk",
    "LogRecord",
    "WriteAheadLog",
    "SnapshotRecord",
    "MaterializedSnapshot",
    "SnapshotStore",
    "Snapshotter",
    "RecoveryResult",
    "apply_txn_record",
    "recover",
]
