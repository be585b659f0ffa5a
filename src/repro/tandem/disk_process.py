"""A disk-process pair: primary + backup, in DP1 or DP2 mode.

State model (deferred update):

- ``pending[txn]`` — writes buffered per transaction until APPLY;
- ``committed`` — the database image;
- ``log_buffer`` (DP2) — the volatile log tail awaiting a group ship.

Protocol verbs served by whichever side is currently primary:

- ``WRITE`` — buffer the write. DP1 synchronously checkpoints it to the
  backup before acking; DP2 just appends a log record and acks.
- ``FLUSH`` — prepare: make the transaction's log durable at the ADP
  (DP1 sends it directly; DP2 joins the group-commit ship, which also
  carries it to the backup).
- ``APPLY`` — after the commit record is durable: fold pending writes into
  the committed image (DP1 checkpoints the apply; DP2 logs it lazily).
- ``ABORT`` — discard pending writes.
- ``READ`` — transaction's own pending write, else committed value.

Backup-side verbs: ``CHECKPOINT``/``CP_APPLY``/``CP_ABORT`` (DP1) and
``SHIP`` (DP2 log replay).

Takeover (`crash_primary`) implements §3's semantics: DP1 promotes a
backup that already holds every acked write, so in-flight transactions
continue; DP2 promotes a backup missing the lost log tail, so TMF aborts
every in-flight transaction that dirtied this pair — and committed
transactions survive in both modes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import SimulationError, TransactionAborted
from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.sim.events import AllOf, Timeout
from repro.sim.scheduler import Simulator
from repro.tandem.adp import AuditDiskProcess
from repro.tandem.config import DPMode, TandemConfig
from repro.tandem.registry import TmfRegistry, TxnStatus


@dataclass
class _DPState:
    """One side's volatile state."""

    committed: Dict[Any, Any] = field(default_factory=dict, init=False)
    pending: Dict[int, Dict[Any, Any]] = field(default_factory=dict, init=False)
    log_buffer: List[Dict[str, Any]] = field(default_factory=list, init=False)
    shipped_lsn: int = field(default=0, init=False)


class DiskProcessPair:
    """A named disk-process pair on the Tandem fabric."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: TmfRegistry,
        name: str,
        config: TandemConfig,
    ) -> None:
        self.sim = sim
        self.network = network
        self.registry = registry
        self.name = name
        self.config = config
        self.primary_name = f"{name}.p"
        self.backup_name = f"{name}.b"
        self.current = self.primary_name
        self._lsn_counter = itertools.count(1)
        self._states: Dict[str, _DPState] = {
            self.primary_name: _DPState(),
            self.backup_name: _DPState(),
        }
        self._endpoints: Dict[str, Endpoint] = {}
        for endpoint_name in (self.primary_name, self.backup_name):
            endpoint = Endpoint(network, endpoint_name)
            self._register_handlers(endpoint)
            endpoint.start()
            self._endpoints[endpoint_name] = endpoint
        # DP2 group-commit machinery (lives with the serving side).
        self._ship_scheduled = False
        self._ship_proc = None
        self._ship_waiters: List[Tuple[int, Any]] = []
        self.aborted_on_takeover: List[int] = []

    # ------------------------------------------------------------------
    # Wiring

    def _register_handlers(self, endpoint: Endpoint) -> None:
        endpoint.register("WRITE", self._handle_write)
        endpoint.register("READ", self._handle_read)
        endpoint.register("FLUSH", self._handle_flush)
        endpoint.register("APPLY", self._handle_apply)
        endpoint.register("ABORT", self._handle_abort)
        endpoint.register("CHECKPOINT", self._handle_checkpoint)
        endpoint.register("CP_APPLY", self._handle_cp_apply)
        endpoint.register("CP_ABORT", self._handle_cp_abort)
        endpoint.register("SHIP", self._handle_ship)

    def _peer_of(self, endpoint_name: str) -> str:
        return self.backup_name if endpoint_name == self.primary_name else self.primary_name

    def _guard_primary(self, endpoint: Endpoint) -> _DPState:
        if endpoint.name != self.current:
            raise SimulationError(f"{endpoint.name} is not the primary of {self.name}")
        return self._states[endpoint.name]

    def _guard_backup(self, endpoint: Endpoint) -> _DPState:
        if endpoint.name == self.current:
            raise SimulationError(f"{endpoint.name} is the primary of {self.name}")
        return self._states[endpoint.name]

    @property
    def backup_alive(self) -> bool:
        return self.network.is_attached(self._peer_of(self.current))

    def state(self, which: Optional[str] = None) -> _DPState:
        """The serving side's state (or a named side's, for tests)."""
        return self._states[which or self.current]

    # ------------------------------------------------------------------
    # Primary-side handlers

    def _handle_write(self, endpoint: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        state = self._guard_primary(endpoint)
        txn_id = msg.payload["txn"]
        key = msg.payload["key"]
        value = msg.payload["value"]
        if self.registry.status(txn_id) is not TxnStatus.ACTIVE:
            raise TransactionAborted(txn_id, "not active at WRITE")
        state.pending.setdefault(txn_id, {})[key] = value
        self.registry.mark_dirty(txn_id, self.name)
        if self.config.mode is DPMode.DP1:
            # Synchronous checkpoint: the 1984 rule — the app must not see
            # the ack until the backup knows the write.
            if self.backup_alive:
                yield from endpoint.call(
                    self._peer_of(endpoint.name),
                    "CHECKPOINT",
                    {"txn": txn_id, "key": key, "value": value},
                    policy=self.config.call_policy(),
                )
            self.sim.metrics.inc(f"tandem.{self.name}.checkpoints")
        else:
            state.log_buffer.append(
                {"lsn": next(self._lsn_counter), "kind": "WRITE",
                 "txn": txn_id, "key": key, "value": value}
            )
        return {}

    def _handle_read(self, endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
        state = self._guard_primary(endpoint)
        txn_id = msg.payload.get("txn")
        key = msg.payload["key"]
        if txn_id is not None and key in state.pending.get(txn_id, {}):
            return {"value": state.pending[txn_id][key]}
        return {"value": state.committed.get(key)}

    def _handle_flush(self, endpoint: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        state = self._guard_primary(endpoint)
        txn_id = msg.payload["txn"]
        if self.registry.status(txn_id) is TxnStatus.ABORTED:
            raise TransactionAborted(txn_id, "aborted before FLUSH")
        if self.config.mode is DPMode.DP1:
            records = [
                {"lsn": next(self._lsn_counter), "kind": "WRITE",
                 "txn": txn_id, "key": key, "value": value}
                for key, value in state.pending.get(txn_id, {}).items()
            ]
            if records:
                yield from endpoint.call(
                    AuditDiskProcess.name, "LOG", {"source": self.name, "records": records},
                    policy=self.config.call_policy(),
                )
        else:
            target_lsn = (
                state.log_buffer[-1]["lsn"] if state.log_buffer else state.shipped_lsn
            )
            yield from self._ensure_shipped(endpoint, target_lsn)
            if self.registry.status(txn_id) is TxnStatus.ABORTED:
                raise TransactionAborted(txn_id, "aborted during FLUSH")
        return {}

    def _handle_apply(self, endpoint: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        state = self._guard_primary(endpoint)
        txn_id = msg.payload["txn"]
        writes = state.pending.pop(txn_id, {})
        state.committed.update(writes)
        if self.config.mode is DPMode.DP1:
            if self.backup_alive:
                yield from endpoint.call(
                    self._peer_of(endpoint.name), "CP_APPLY", {"txn": txn_id},
                    policy=self.config.call_policy(),
                )
        else:
            state.log_buffer.append(
                {"lsn": next(self._lsn_counter), "kind": "APPLY", "txn": txn_id}
            )
        return {}

    def _handle_abort(self, endpoint: Endpoint, msg: Any) -> Generator[Any, Any, Dict[str, Any]]:
        state = self._guard_primary(endpoint)
        txn_id = msg.payload["txn"]
        state.pending.pop(txn_id, None)
        if self.config.mode is DPMode.DP1:
            if self.backup_alive:
                yield from endpoint.call(
                    self._peer_of(endpoint.name), "CP_ABORT", {"txn": txn_id},
                    policy=self.config.call_policy(),
                )
        else:
            state.log_buffer.append(
                {"lsn": next(self._lsn_counter), "kind": "ABORT", "txn": txn_id}
            )
        return {}

    # ------------------------------------------------------------------
    # Backup-side handlers

    def _handle_checkpoint(self, endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
        state = self._guard_backup(endpoint)
        payload = msg.payload
        state.pending.setdefault(payload["txn"], {})[payload["key"]] = payload["value"]
        return {}

    def _handle_cp_apply(self, endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
        state = self._guard_backup(endpoint)
        writes = state.pending.pop(msg.payload["txn"], {})
        state.committed.update(writes)
        return {}

    def _handle_cp_abort(self, endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
        state = self._guard_backup(endpoint)
        state.pending.pop(msg.payload["txn"], None)
        return {}

    def _handle_ship(self, endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
        state = self._guard_backup(endpoint)
        for record in msg.payload["records"]:
            self._replay_record(state, record)
            state.shipped_lsn = max(state.shipped_lsn, record["lsn"])
        return {}

    @staticmethod
    def _replay_record(state: _DPState, record: Dict[str, Any]) -> None:
        kind = record["kind"]
        if kind == "WRITE":
            state.pending.setdefault(record["txn"], {})[record["key"]] = record["value"]
        elif kind == "APPLY":
            state.committed.update(state.pending.pop(record["txn"], {}))
        elif kind == "ABORT":
            state.pending.pop(record["txn"], None)

    # ------------------------------------------------------------------
    # DP2 group-commit shipping

    def _ensure_shipped(self, endpoint: Endpoint, target_lsn: int) -> Generator[Any, Any, None]:
        """Wait until the log through ``target_lsn`` is at the backup + ADP."""
        state = self._states[endpoint.name]
        if state.shipped_lsn >= target_lsn:
            return
        waiter = self.sim.event(name=f"{self.name}.ship@{target_lsn}")
        self._ship_waiters.append((target_lsn, waiter))
        if not self._ship_scheduled:
            self._ship_scheduled = True
            self._ship_proc = self.sim.spawn(
                self._ship_loop(endpoint), name=f"{self.name}.ship"
            )
        yield waiter

    def _ship_loop(self, endpoint: Endpoint) -> Generator[Any, Any, None]:
        """The city bus: wait for the timer, sweep up the whole buffer,
        carry it to the backup and the ADP in one trip; repeat while riders
        are still waiting."""
        state = self._states[endpoint.name]
        while True:
            yield Timeout(self.config.group_commit_timer)
            batch, state.log_buffer = state.log_buffer, []
            if batch:
                last_lsn = batch[-1]["lsn"]
                legs = [
                    self.sim.spawn(
                        endpoint.call(
                            AuditDiskProcess.name, "LOG",
                            {"source": self.name, "records": batch},
                            policy=self.config.call_policy(),
                        ),
                        name=f"{self.name}.ship.adp",
                    )
                ]
                if self.backup_alive:
                    legs.append(
                        self.sim.spawn(
                            endpoint.call(
                                self._peer_of(endpoint.name), "SHIP",
                                {"records": batch},
                                policy=self.config.call_policy(),
                            ),
                            name=f"{self.name}.ship.backup",
                        )
                    )
                yield AllOf(legs)
                state.shipped_lsn = max(state.shipped_lsn, last_lsn)
                self.sim.metrics.inc(f"tandem.{self.name}.ships")
                self.sim.metrics.inc(f"tandem.{self.name}.shipped_records", len(batch))
            still_waiting = []
            for target_lsn, waiter in self._ship_waiters:
                if state.shipped_lsn >= target_lsn:
                    waiter.trigger(state.shipped_lsn)
                else:
                    still_waiting.append((target_lsn, waiter))
            self._ship_waiters = still_waiting
            if not self._ship_waiters and not state.log_buffer:
                self._ship_scheduled = False
                return

    # ------------------------------------------------------------------
    # Failure & takeover

    def crash_primary(self) -> List[int]:
        """Fail-fast crash of the serving side; promote the peer.

        Returns the transactions aborted by the takeover (empty for DP1).
        """
        old = self.current
        lost_records = len(self._states[old].log_buffer)
        self._endpoints[old].stop("crash")
        if self._ship_proc is not None:
            self._ship_proc.interrupt("crash")
        self._ship_scheduled = False
        self._ship_waiters = []
        aborted: List[int] = []
        if self.config.mode is DPMode.DP2:
            aborted = self.registry.abort_active_dirty_at(self.name)
        # Promote the backup and run recovery over its pending set.
        self.current = self._peer_of(old)
        new_state = self._states[self.current]
        for txn_id in list(new_state.pending):
            status = self.registry.status(txn_id)
            if status is TxnStatus.COMMITTED:
                new_state.committed.update(new_state.pending.pop(txn_id))
            elif status is TxnStatus.ABORTED:
                new_state.pending.pop(txn_id)
            # ACTIVE (DP1 only): keep — the transaction continues.
        self.aborted_on_takeover.extend(aborted)
        self.sim.trace.emit(
            self.name, "takeover",
            new_primary=self.current, aborted=len(aborted), lost_records=lost_records,
        )
        self.sim.metrics.inc(f"tandem.{self.name}.takeovers")
        self.sim.metrics.inc("tandem.aborted_by_takeover", len(aborted))
        return aborted
