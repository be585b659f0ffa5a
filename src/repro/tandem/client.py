"""The application side: begin / WRITE / commit against the DP pairs.

The client library is where the paper's §2.1 retry discipline lives:
a WRITE that times out (its DP crashed mid-request) is re-resolved against
the pair's *current* primary and retried — buffering the same key/value
again is naturally idempotent. Commit is the two-phase deferred-update
protocol: FLUSH every dirtied pair (prepare), COMMIT at the ADP (decide),
APPLY everywhere (complete).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set

from repro.errors import TimeoutError_, TransactionAborted
from repro.net.rpc import Endpoint, RpcError
from repro.sim.events import AllOf
from repro.tandem.registry import TxnStatus


class Txn:
    """Client-side transaction handle."""

    def __init__(self, txn_id: int) -> None:
        self.id = txn_id
        self.dirty: Set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Txn {self.id} dirty={sorted(self.dirty)}>"


class AppClient:
    """One application process talking to a :class:`TandemSystem`."""

    def __init__(self, system: Any, name: str) -> None:
        self.system = system
        self.sim = system.sim
        self.name = name
        self.endpoint = Endpoint(system.network, name)
        self.endpoint.start()

    # ------------------------------------------------------------------

    def begin(self) -> Txn:
        return Txn(self.system.registry.new_txn())

    def write(self, txn: Txn, pair_name: str, key: Any, value: Any) -> Generator[Any, Any, None]:
        """Buffer one write at a DP pair; retries across takeover."""
        start = self.sim.now
        yield from self._call_pair(
            pair_name, "WRITE", {"txn": txn.id, "key": key, "value": value}
        )
        txn.dirty.add(pair_name)
        self.sim.metrics.observe("tandem.write_latency", self.sim.now - start)

    def read(self, txn: Txn, pair_name: str, key: Any) -> Generator[Any, Any, Any]:
        result = yield from self._call_pair(
            pair_name, "READ", {"txn": txn.id, "key": key}
        )
        return result["value"]

    def commit(self, txn: Txn) -> Generator[Any, Any, None]:
        """Prepare + decide + apply. Raises :class:`TransactionAborted` if
        any dirtied pair aborted the transaction (DP2 takeover)."""
        start = self.sim.now
        outcomes = yield from self._fan_out(txn, "FLUSH")
        if any(outcome == "aborted" for outcome in outcomes):
            yield from self._abort_remote(txn)
            raise TransactionAborted(txn.id, "aborted during prepare")
        yield from self.endpoint.call(
            self.system.adp.name, "COMMIT", {"txn": txn.id},
            policy=self.system.config.call_policy(),
        )
        yield from self._fan_out(txn, "APPLY")
        self.sim.metrics.observe("tandem.commit_latency", self.sim.now - start)
        self.sim.metrics.inc("tandem.commits")

    # ------------------------------------------------------------------

    def _abort_remote(self, txn: Txn) -> Generator[Any, Any, None]:
        if self.system.registry.status(txn.id) is not TxnStatus.ABORTED:
            self.system.registry.mark_aborted(txn.id)
        yield from self._fan_out(txn, "ABORT")

    def _fan_out(self, txn: Txn, verb: str) -> Generator[Any, Any, List[str]]:
        """Send ``verb`` to every dirtied pair in parallel; returns one
        outcome string per pair: "ok" or "aborted"."""
        procs = [
            self.sim.spawn(
                self._call_pair_outcome(pair_name, verb, {"txn": txn.id}),
                name=f"{self.name}.{verb}.{pair_name}",
            )
            for pair_name in sorted(txn.dirty)
        ]
        if not procs:
            return []
        results = yield AllOf(procs)
        return [results[p.done] for p in procs]

    def _call_pair_outcome(
        self, pair_name: str, verb: str, payload: Dict[str, Any]
    ) -> Generator[Any, Any, str]:
        try:
            yield from self._call_pair(pair_name, verb, payload)
        except TransactionAborted:
            return "aborted"
        return "ok"

    def _call_pair(
        self, pair_name: str, verb: str, payload: Dict[str, Any]
    ) -> Generator[Any, Any, Dict[str, Any]]:
        """Call the pair's current primary, re-resolving across takeovers."""
        pair = self.system.pair(pair_name)
        txn_id = payload.get("txn")
        attempts = self.system.config.rpc_retries + 1
        last_error: Optional[Exception] = None
        for _attempt in range(attempts):
            target = pair.current
            try:
                result = yield from self.endpoint.call(
                    target, verb, dict(payload),
                    policy=self.system.config.call_policy(retries=0),
                )
                return result
            except TimeoutError_ as exc:
                last_error = exc  # primary may have crashed; re-resolve
            except RpcError as exc:
                if "aborted" in exc.detail:
                    raise TransactionAborted(txn_id, exc.detail) from exc
                if "not the primary" in exc.detail:
                    last_error = exc  # raced a takeover; re-resolve
                else:
                    raise
            if txn_id is not None and (
                self.system.registry.status(txn_id) is TxnStatus.ABORTED
            ):
                raise TransactionAborted(txn_id, "aborted while retrying")
        raise TimeoutError_(
            f"{self.name}: {verb} to {pair_name} failed after {attempts} attempts: {last_error}"
        )
