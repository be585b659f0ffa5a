"""Executable apologies: who was told what, what is now true, what we do.

§5.6–§5.7 made apologies a *queue*; the txn layer makes them a
*structured record with a compensating action attached*. When
stabilization re-executes an acked weak op in the agreed order and the
result changes, the layer emits a :class:`TxnApology` carrying the full
story — the operation, the result the client was told, the result that
is now true, and the compensation — and routes it through an
:class:`ApologyBook`:

- escrow-style grants (``{"ok": ...}`` results) are wired to
  :mod:`repro.resources`: a retracted grant releases the fulfillment
  pool's unit (``release``), an upgraded decline re-reserves one
  (``allocate``) — §7.4's cheap apology, executed;
- anything else goes to the human ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.operation import Operation
from repro.resources.fungible import FungiblePool


@dataclass(frozen=True)
class TxnApology:
    """One wrong guess, fully accounted."""

    uniquifier: str
    op_type: str
    origin: str           # the replica that made (and acked) the guess
    told: Any             # the result the client walked away with
    actual: Any           # the result the agreed order produced
    action: str           # the compensation taken ("release", "re-reserve",
                          # "human")
    time: float


class ApologyBook:
    """Routes and records the txn layer's apologies.

    The book is per-system, not per-replica: an apology is owed to a
    *client*, and the same wrong guess discovered at two replicas must
    not be apologized for twice (dedup by uniquifier).
    """

    def __init__(self, sim: Any, pool: Optional[FungiblePool] = None) -> None:
        self.sim = sim
        #: The fulfillment-side pool (real seats, real rooms) that acked
        #: grants were taken from; compensation releases/re-reserves here.
        self.pool = pool
        self.entries: List[TxnApology] = []
        self.human: List[TxnApology] = []
        self._seen: set = set()

    # ------------------------------------------------------------------

    def _compensate(self, uniquifier: str, told: Any, actual: Any) -> str:
        """Pick and execute the compensating action."""
        if (
            self.pool is not None
            and isinstance(told, dict) and isinstance(actual, dict)
            and "ok" in told and "ok" in actual
        ):
            if told.get("ok") and not actual.get("ok"):
                # Over-grant: the unit was promised but the agreed order
                # says no — give the fungible unit back (§7.4).
                self.pool.release(uniquifier)
                return "release"
            if not told.get("ok") and actual.get("ok"):
                # Good-news apology: the decline was wrong; re-reserve.
                self.pool.allocate(uniquifier)
                return "re-reserve"
        return ""

    def emit(self, op: Operation, told: Any, actual: Any,
             origin: str = "") -> Optional[TxnApology]:
        """Record one wrong guess; executes the compensation. Returns the
        apology, or None when this uniquifier was already apologized for."""
        if op.uniquifier in self._seen:
            return None
        self._seen.add(op.uniquifier)
        action = self._compensate(op.uniquifier, told, actual)
        if not action:
            action = "human"
        apology = TxnApology(
            uniquifier=op.uniquifier, op_type=op.op_type,
            origin=origin or op.origin, told=told, actual=actual,
            action=action, time=self.sim.now,
        )
        self.entries.append(apology)
        if action == "human":
            self.human.append(apology)
        self.sim.metrics.inc("txn.apologies")
        self.sim.trace.emit(
            "txn", "apology", op=op.uniquifier, op_type=op.op_type,
            action=action,
        )
        return apology

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.entries)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for apology in self.entries:
            tally[apology.action] = tally.get(apology.action, 0) + 1
        return tally

    def uniquifiers(self) -> set:
        return {apology.uniquifier for apology in self.entries}
