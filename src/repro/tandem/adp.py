"""The Audit Disk Process: the durable end of the transaction log.

All dirtied DPs flush their log records here; the commit record written
here *decides* a transaction. The ADP's disk is the only storage in the
Tandem model that survives everything (in the real machine it is itself a
process pair over mirrored disks; we model the durable behaviour and
charge its disk time).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.tandem.registry import TmfRegistry


class AuditDiskProcess:
    """Endpoint ``adp``: handles LOG (record batches) and COMMIT."""

    name = "adp"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: TmfRegistry,
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.disk = Disk(sim, name=f"{self.name}.disk")
        self.endpoint = Endpoint(network, self.name, dedup=False)
        self.endpoint.register("LOG", self._handle_log)
        self.endpoint.register("COMMIT", self._handle_commit)
        self.endpoint.start()
        self._committed: Set[int] = set()

    # ------------------------------------------------------------------

    def _handle_log(self, _ep: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        """Durably write a batch of log records keyed by (source, lsn)."""
        records: List[Dict[str, Any]] = msg.payload["records"]
        source: str = msg.payload["source"]
        batch = {(source, record["lsn"]): record for record in records}
        yield from self.disk.write_batch(batch)
        self.sim.metrics.inc("adp.log_batches")
        self.sim.metrics.inc("adp.records", len(records))
        return {"durable": True}

    def _handle_commit(self, _ep: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        """Write the commit record; the transaction is decided here.

        Idempotent: a retried COMMIT rewrites the same block and re-marks
        the same state.
        """
        txn_id: int = msg.payload["txn"]
        yield from self.disk.write(("commit", txn_id), {"txn": txn_id})
        self._committed.add(txn_id)
        self.registry.mark_committed(txn_id)
        self.sim.metrics.inc("adp.commits")
        return {"committed": True}

    # ------------------------------------------------------------------
    # Recovery-time inspection

    def committed_txns(self) -> Set[int]:
        """Transactions with a durable commit record."""
        return set(self._committed)

    def durable_records_for(self, source: str) -> List[Dict[str, Any]]:
        """All durable log records from one DP pair, in LSN order."""
        items: List[Tuple[int, Dict[str, Any]]] = []
        for key, value in self.disk.contents().items():
            if isinstance(key, tuple) and key[0] == source:
                items.append((key[1], value))
        return [record for _lsn, record in sorted(items, key=lambda kv: kv[0])]
