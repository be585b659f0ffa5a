"""Cart operations and the canonical fold that materializes a cart."""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict, Iterable, List, Tuple

from repro.core.operation import auto_uniquifier
from repro.errors import SimulationError

KINDS = ("ADD", "CHANGE", "DELETE")


class CartOp:
    """One captured user intention, ledger-style (§6.1). Immutable by
    convention.

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

    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "item": self.item,
            "quantity": self.quantity,
            "uniquifier": self.uniquifier,
            "time": self.time,
        }


def malformed_entry(missing: KeyError) -> SimulationError:
    """The domain error for a wire entry that lacks a field."""
    return SimulationError(f"cart op entry has no field {missing.args[0]!r}")


def canonical_order(ops: Iterable[CartOp]) -> List[CartOp]:
    """Deterministic order: ingress time, then uniquifier. Every replica
    with the same op set folds to the same cart."""
    return sorted(ops, key=attrgetter("time", "uniquifier"))


def materialize(ops: Iterable[CartOp]) -> Dict[str, int]:
    """Fold operations into an item → quantity map.

    ADD accumulates, CHANGE overwrites, DELETE removes. Applied in
    canonical order, so the outcome is "predictable" in the §6.1 sense.
    """
    return _fold(map(attrgetter("kind", "item", "quantity"), canonical_order(ops)))


def materialize_entries(blob: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """:func:`materialize` over wire entries (what :meth:`CartOp.to_wire`
    makes) as they sit in a blob: same order, same fold, and no
    ``CartOp`` built per entry. A missing field or an unknown kind is a
    :class:`SimulationError`."""
    try:
        return _fold(map(
            itemgetter("kind", "item", "quantity"),
            sorted(blob, key=itemgetter("time", "uniquifier")),
        ))
    except KeyError as missing:
        raise malformed_entry(missing) from None


def _fold(ordered: Iterable[Tuple[str, str, int]]) -> Dict[str, int]:
    """``(kind, item, quantity)`` triples, already in canonical order."""
    cart: Dict[str, int] = {}
    for kind, item, quantity in ordered:
        if kind == "ADD":
            cart[item] = (cart[item] if item in cart else 0) + quantity
        elif kind == "CHANGE":
            cart[item] = quantity
        elif kind == "DELETE":
            if item in cart:
                del cart[item]
        else:
            raise SimulationError(f"unknown cart op kind {kind!r}")
    return {item: qty for item, qty in cart.items() if qty > 0}
