"""The account as an operation space.

State shape (structurally comparable across replicas)::

    {"balance": float, "held": float, "entries": frozenset[(uniq, kind, delta)]}

Debits and credits are commutative and associative; entries are a set, so
two replicas that know the same operations have *equal states* whatever
the arrival orders — ACID 2.0 by construction, verified by the property
tests.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.operation import Operation, TypeRegistry
from repro.core.rules import BusinessRule


def _initial_account() -> Dict[str, Any]:
    return {"balance": 0.0, "held": 0.0, "entries": frozenset()}


def _with_entry(state: Dict[str, Any], op: Operation, kind: str, delta: float,
                held_delta: float = 0.0) -> Dict[str, Any]:
    return {
        "balance": state["balance"] + delta,
        "held": state["held"] + held_delta,
        "entries": state["entries"] | {(op.uniquifier, kind, delta)},
    }


def _apply_deposit(state: Dict[str, Any], op: Operation) -> Dict[str, Any]:
    amount = float(op.args["amount"])
    hold = bool(op.args.get("hold", False))
    return _with_entry(state, op, "DEPOSIT", amount, held_delta=amount if hold else 0.0)


def _apply_clear_check(state: Dict[str, Any], op: Operation) -> Dict[str, Any]:
    return _with_entry(state, op, "CLEAR_CHECK", -float(op.args["amount"]))


def _apply_bounce_debit(state: Dict[str, Any], op: Operation) -> Dict[str, Any]:
    """The returned check: original amount plus the bounce fee (§6.2)."""
    return _with_entry(state, op, "BOUNCE_DEBIT", -float(op.args["amount"]))


def _apply_fee(state: Dict[str, Any], op: Operation) -> Dict[str, Any]:
    return _with_entry(state, op, "FEE", -float(op.args["amount"]))


def _apply_release_hold(state: Dict[str, Any], op: Operation) -> Dict[str, Any]:
    return _with_entry(state, op, "RELEASE_HOLD", 0.0, held_delta=-float(op.args["amount"]))


def build_account_registry() -> TypeRegistry:
    """All account operation types, registered commutative."""
    registry = TypeRegistry(initial_state=_initial_account)
    registry.register("DEPOSIT", _apply_deposit)
    registry.register("CLEAR_CHECK", _apply_clear_check)
    registry.register("BOUNCE_DEBIT", _apply_bounce_debit)
    registry.register("FEE", _apply_fee)
    registry.register("RELEASE_HOLD", _apply_release_hold)
    return registry


def balance_of(state: Dict[str, Any]) -> float:
    return state["balance"]


def available_of(state: Dict[str, Any]) -> float:
    """Balance minus holds — what a clearing decision may spend."""
    return state["balance"] - state["held"]


def overdraft_rule() -> BusinessRule:
    """"Don't overdraw the checking account": available funds must cover
    every debit. Checked at ingress (refuse = bounce) and at integration
    (violation = apology)."""

    def check(state: Dict[str, Any], _op: Operation) -> str | None:
        if available_of(state) < 0:
            return f"available {available_of(state):.2f} below zero"
        return None

    return BusinessRule(
        name="overdraft",
        check=check,
        applies_to=frozenset({"CLEAR_CHECK", "BOUNCE_DEBIT"}),
    )
