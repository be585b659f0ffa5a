"""Cart operations and the canonical fold that materializes a cart."""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable

from repro.core.operation import auto_uniquifier
from repro.errors import SimulationError

KINDS = ("ADD", "CHANGE", "DELETE")


class CartOp:
    """One captured user intention, ledger-style (§6.1). Never mutated
    once built: the op-centric blob holds the op itself, so the session
    that made it, the caller it returns to and every stored blob share
    one object.

    Written by hand rather than as a frozen dataclass, as ``Message`` is:
    one is built per cart operation on the request path, and a frozen
    dataclass pays an ``object.__setattr__`` call per field.
    """

    __slots__ = ("kind", "item", "quantity", "uniquifier", "time")

    def __init__(
        self,
        kind: str,  # ADD | CHANGE | DELETE
        item: str,
        quantity: int = 1,
        uniquifier: str = "",
        time: float = 0.0,
    ) -> None:
        if kind not in KINDS:
            raise SimulationError(f"unknown cart op kind {kind!r}")
        self.kind = kind
        self.item = item
        self.quantity = quantity
        self.uniquifier = uniquifier or auto_uniquifier(f"cart-{kind}")
        self.time = time

    def __repr__(self) -> str:
        return (
            f"CartOp(kind={self.kind!r}, item={self.item!r}, "
            f"quantity={self.quantity!r}, uniquifier={self.uniquifier!r}, "
            f"time={self.time!r})"
        )

    def to_wire(self) -> "CartOp":
        """The op as a blob entry: the op itself, shared. Kept because
        ``bench/layers.py`` builds its cart probe blobs through it."""
        return self


def malformed_entry(missing: AttributeError) -> SimulationError:
    """The domain error for a blob entry that lacks a field (a deleted
    slot)."""
    return SimulationError(f"cart op entry has no field {missing.name!r}")


def materialize(ops: Iterable[CartOp]) -> Dict[str, int]:
    """Fold operations into an item → quantity map.

    ADD accumulates, CHANGE overwrites, DELETE removes. Applied in
    canonical order (ingress time, then uniquifier), so every replica with
    the same op set folds to the same cart: the outcome is "predictable"
    in the §6.1 sense. An op with a missing field or an unknown kind is a
    :class:`SimulationError`.
    """
    cart: Dict[str, int] = {}
    try:
        ordered = sorted(ops, key=attrgetter("time", "uniquifier"))
        for kind, item, quantity in map(attrgetter("kind", "item", "quantity"), ordered):
            if kind == "ADD":
                cart[item] = (cart[item] if item in cart else 0) + quantity
            elif kind == "CHANGE":
                cart[item] = quantity
            elif kind == "DELETE":
                if item in cart:
                    del cart[item]
            else:
                raise SimulationError(f"unknown cart op kind {kind!r}")
    except AttributeError as missing:
        raise malformed_entry(missing) from None
    return {item: qty for item, qty in cart.items() if qty > 0}
