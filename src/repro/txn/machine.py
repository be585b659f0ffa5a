"""Replicated state machines for the transaction layer.

A :class:`TxnMachine` is the deterministic kernel the txn layer folds
operations through, twice per operation in the worst case: once
speculatively (the guess the client is told) and once in the agreed
total order (the truth). Both folds run the same code, so a guess is
wrong only when the *order* changed underneath it — which is exactly the
paper's point: the answer you gave was a memory of local state, and the
apology is the gap between that memory and the eventual truth.

One machine ships here: :class:`ResourceMachine` — the escrow/
seat-reservation shape of §7: per-category pools with weak,
commutative-in-the-common-case grants (``RESERVE``/``CANCEL``/
``RESTOCK``) and strong, order-sensitive control ops
(``SET_CAPACITY``/``CLOSE``). Near the capacity boundary RESERVE stops
commuting — that boundary is where guesses go wrong and apologies get
minted.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.core.operation import Operation, TypeRegistry
from repro.errors import SimulationError


class TxnMachine:
    """The deterministic fold the txn layer replicates.

    ``apply`` MUST be a pure function of (state, op) — it may mutate
    ``state`` in place (the caller owns the copy discipline) but must
    not consult anything else; replicas rely on identical results from
    identical orders. The returned *result* is what the client is told,
    so it must be comparable with ``==`` (the reorder check).
    """

    def initial(self) -> Any:
        raise NotImplementedError

    def copy(self, state: Any) -> Any:
        """A private copy ``apply`` may mutate freely."""
        raise NotImplementedError

    def apply(self, state: Any, op: Operation) -> Any:
        raise NotImplementedError


class ResourceMachine(TxnMachine):
    """Escrow-style resource pools under mixed-consistency operations.

    State shape (plain dicts, cheap to copy, value-comparable)::

        {category: {"capacity": int, "granted": {uniquifier: True},
                    "closed": bool}}

    Operations:

    - ``RESERVE  {category}``            (weak)   grant one unit if open
      and under capacity; result ``{"ok": bool}``. The unit itself is
      fungible (§7.4) — the result deliberately names no unit number, so
      a reorder that shuffles *which* unit you got is not an apology.
    - ``CANCEL   {category, target}``    (weak)   return the grant made
      under uniquifier ``target``; result ``{"cancelled": bool}``.
    - ``RESTOCK  {category, quantity}``  (weak)   escrow-style increment
      of capacity; result ``{"capacity": int}``.
    - ``SET_CAPACITY {category, value}`` (strong) overwrite capacity —
      a classic non-commutative WRITE; result ``{"capacity": int}``.
    - ``CLOSE    {category}``            (strong) stop all future grants;
      result ``{"closed": True}``.
    """

    WEAK_TYPES = ("RESERVE", "CANCEL", "RESTOCK")
    STRONG_TYPES = ("SET_CAPACITY", "CLOSE")

    def __init__(self, capacities: Dict[str, int]) -> None:
        if not capacities:
            raise SimulationError("ResourceMachine needs at least one category")
        self.capacities = dict(capacities)

    def initial(self) -> Dict[str, Dict[str, Any]]:
        return {
            category: {"capacity": capacity, "granted": {}, "closed": False}
            for category, capacity in self.capacities.items()
        }

    def copy(self, state: Any) -> Any:
        return {
            category: {
                "capacity": pool["capacity"],
                "granted": dict(pool["granted"]),
                "closed": pool["closed"],
            }
            for category, pool in state.items()
        }

    def _pool(self, state: Any, op: Operation) -> Dict[str, Any]:
        category = op.args["category"]
        if category not in state:
            raise SimulationError(f"unknown resource category {category!r}")
        return state[category]

    def apply(self, state: Any, op: Operation) -> Any:
        pool = self._pool(state, op)
        kind = op.op_type
        if kind == "RESERVE":
            if op.uniquifier in pool["granted"]:
                return {"ok": True}  # idempotent re-grant (§5.4)
            if pool["closed"] or len(pool["granted"]) >= pool["capacity"]:
                return {"ok": False}
            pool["granted"][op.uniquifier] = True
            return {"ok": True}
        if kind == "CANCEL":
            removed = pool["granted"].pop(op.args["target"], None)
            # Deliberately not the RESERVE result shape: only grant-shaped
            # ``{"ok": ...}`` results get the pool-wired apology.
            return {"cancelled": removed is not None}
        if kind == "RESTOCK":
            pool["capacity"] += int(op.args["quantity"])
            return {"capacity": pool["capacity"]}
        if kind == "SET_CAPACITY":
            pool["capacity"] = int(op.args["value"])
            return {"capacity": pool["capacity"]}
        if kind == "CLOSE":
            pool["closed"] = True
            return {"closed": True}
        raise SimulationError(f"unknown resource op type {kind!r}")

    # ------------------------------------------------------------------
    # Classification support

    def registry(self) -> TypeRegistry:
        """A :class:`TypeRegistry` over the same semantics (state-only,
        non-mutating) so :func:`repro.patterns.classify_operation_space`
        can *measure* which ops commute instead of trusting this module's
        word for it."""
        machine = self

        def pure(fn: Callable[[Any, Operation], Any]) -> Callable[[Any, Operation], Any]:
            def apply(state: Any, op: Operation) -> Any:
                state = machine.copy(state)
                fn(state, op)
                return state
            return apply

        registry = TypeRegistry(initial_state=self.initial)
        for name in self.WEAK_TYPES:
            registry.register(name, pure(self.apply))
        for name in self.STRONG_TYPES:
            registry.register(name, pure(self.apply), declared_commutative=False)
        return registry

    @staticmethod
    def granted_count(state: Any, category: str) -> int:
        return len(state[category]["granted"])

    @staticmethod
    def capacity(state: Any, category: str) -> int:
        return state[category]["capacity"]


def sample_resource_ops() -> list:
    """A small sample workload over :class:`ResourceMachine` op types on
    one category, sized so the classifier measures the common case (ops
    commute away from the capacity boundary; SET_CAPACITY does not commute
    at all)."""
    return [
        Operation("RESERVE", {"category": "seats"},
                  uniquifier="sample-r0", ingress_time=1.0),
        Operation("RESERVE", {"category": "seats"},
                  uniquifier="sample-r1", ingress_time=2.0),
        Operation("CANCEL", {"category": "seats", "target": "sample-r0"},
                  uniquifier="sample-c0", ingress_time=3.0),
        Operation("RESTOCK", {"category": "seats", "quantity": 2},
                  uniquifier="sample-k0", ingress_time=4.0),
        Operation("SET_CAPACITY", {"category": "seats", "value": 5},
                  uniquifier="sample-s0", ingress_time=5.0),
        Operation("SET_CAPACITY", {"category": "seats", "value": 9},
                  uniquifier="sample-s1", ingress_time=6.0),
    ]
