"""Blob representations and their sibling-merge semantics."""

from __future__ import annotations

from typing import Any, Dict, List, Protocol

from repro.cart.operations import CartOp, malformed_entry, materialize


class CartStrategy(Protocol):
    """How a cart lives inside a Dynamo blob."""

    name: str

    def empty(self) -> Any:
        """A fresh blob."""
        ...

    def apply(self, blob: Any, op: CartOp) -> Any:
        """A new blob with the operation incorporated."""
        ...

    def merge(self, siblings: List[Any]) -> Any:
        """Reconcile sibling blobs into one."""
        ...

    def view(self, blob: Any) -> Dict[str, int]:
        """Materialize item → quantity."""
        ...


class OpCartStrategy:
    """Operation-centric: the blob is the operation log (§6.5).

    A blob is a list of the :class:`CartOp`s themselves, shared with the
    session that made them and with every other blob that holds them;
    nothing mutates an op or a stored list, so ``apply`` and ``merge``
    return a fresh list and copy no entry.

    Merge is union by uniquifier — associative, commutative, idempotent —
    so no sibling interleaving can lose or resurrect anything.
    """

    name = "op-centric"

    def empty(self) -> List[CartOp]:
        return []

    def apply(self, blob: List[CartOp], op: CartOp) -> List[CartOp]:
        uniquifier = op.uniquifier
        try:
            for entry in blob:
                if entry.uniquifier == uniquifier:
                    return list(blob)
        except AttributeError as missing:
            raise malformed_entry(missing) from None
        return [*blob, op]

    def merge(self, siblings: List[List[CartOp]]) -> List[CartOp]:
        seen: Dict[str, CartOp] = {}
        try:
            for sibling in siblings:
                for entry in sibling:
                    uniquifier = entry.uniquifier
                    if uniquifier not in seen:
                        seen[uniquifier] = entry
        except AttributeError as missing:
            raise malformed_entry(missing) from None
        return list(seen.values())

    def view(self, blob: List[CartOp]) -> Dict[str, int]:
        return materialize(blob)


class MaterializedCartStrategy:
    """The Dynamo-paper cart: blob is the materialized item map; merge is
    item union (max quantity per item). Adds survive; a DELETE loses to a
    sibling that still carries the item — the resurrection anomaly."""

    name = "materialized"

    def empty(self) -> Dict[str, int]:
        return {}

    def apply(self, blob: Dict[str, int], op: CartOp) -> Dict[str, int]:
        cart = dict(blob)
        if op.kind == "ADD":
            cart[op.item] = cart.get(op.item, 0) + op.quantity
        elif op.kind == "CHANGE":
            cart[op.item] = op.quantity
        elif op.kind == "DELETE":
            cart.pop(op.item, None)
        return {item: qty for item, qty in cart.items() if qty > 0}

    def merge(self, siblings: List[Dict[str, int]]) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for sibling in siblings:
            for item, qty in sibling.items():
                merged[item] = max(merged.get(item, 0), qty)
        return merged

    def view(self, blob: Dict[str, int]) -> Dict[str, int]:
        return dict(blob)


class LwwCartStrategy:
    """Storage-centric strawman: last-writer-wins on the whole blob.

    Merge keeps the sibling with the newest stamp and throws the rest
    away — concurrent adds are silently lost. This is the semantics you
    get from treating the cart as an opaque WRITE (§5.3: "WRITES to a
    database are not commutative!")."""

    name = "lww"

    def empty(self) -> Dict[str, Any]:
        return {"items": {}, "stamp": (0.0, "")}

    def apply(self, blob: Dict[str, Any], op: CartOp) -> Dict[str, Any]:
        items = MaterializedCartStrategy().apply(blob["items"], op)
        return {"items": items, "stamp": (op.time, op.uniquifier)}

    def merge(self, siblings: List[Dict[str, Any]]) -> Dict[str, Any]:
        return max(siblings, key=lambda blob: tuple(blob["stamp"]))

    def view(self, blob: Dict[str, Any]) -> Dict[str, int]:
        return dict(blob["items"])
