"""Operations: the unit of application intent.

An operation is uniquely identified (§5.4's uniquifier) and carries a
type name plus arguments. The uniquifier does two jobs the paper calls
out: it is the partitioning key for scale, and it lets any replica
recognize a duplicate execution and collapse it — idempotence by
construction.

Equality and hashing are **by uniquifier only**: "replicas that have seen
the same work" means the same uniquifier set, regardless of how the copy
arrived.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import SimulationError
from repro.sim.scheduler import register_fresh_run_hook

_op_seq = itertools.count(1)


def _reset_op_seq() -> None:
    # Per simulator run, as message ids: a run's uniquifiers, and so its
    # blobs and digests, do not depend on what ran before it.
    global _op_seq
    _op_seq = itertools.count(1)


register_fresh_run_hook(_reset_op_seq)


def auto_uniquifier(prefix: str = "op") -> str:
    """A fresh process-wide uniquifier (assign at ingress, §5.4)."""
    return f"{prefix}-{next(_op_seq)}"


class Operation:
    """One uniquely-identified application operation."""

    __slots__ = ("uniquifier", "op_type", "args", "origin", "ingress_time")

    def __init__(
        self,
        op_type: str,
        args: Optional[Mapping[str, Any]] = None,
        uniquifier: Optional[str] = None,
        origin: str = "",
        ingress_time: float = 0.0,
    ) -> None:
        self.op_type = op_type
        self.args: Dict[str, Any] = dict(args or {})
        self.uniquifier = uniquifier or auto_uniquifier(op_type)
        self.origin = origin
        self.ingress_time = ingress_time

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operation) and other.uniquifier == self.uniquifier

    def __hash__(self) -> int:
        return hash(self.uniquifier)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Op {self.op_type} {self.args} #{self.uniquifier}>"


class OperationType:
    """An operation type: a name and a **pure** apply function.

    ``apply(state, op) -> new_state`` must not mutate ``state``; the
    property checker and replicas rely on that. ``declared_commutative``
    is the author's claim, which :func:`repro.core.properties.check_acid2`
    puts to the test.
    """

    def __init__(
        self,
        name: str,
        apply: Callable[[Any, Operation], Any],
        declared_commutative: bool = True,
    ) -> None:
        self.name = name
        self.apply = apply
        self.declared_commutative = declared_commutative

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OperationType {self.name}>"


class TypeRegistry:
    """Maps type names to :class:`OperationType`.

    ``initial_state`` is a zero-argument factory for the empty state the
    fold starts from.
    """

    def __init__(self, initial_state: Callable[[], Any]) -> None:
        self.initial_state = initial_state
        self._types: Dict[str, OperationType] = {}

    def register(
        self,
        name: str,
        apply: Callable[[Any, Operation], Any],
        declared_commutative: bool = True,
    ) -> OperationType:
        if name in self._types:
            raise SimulationError(f"operation type {name!r} already registered")
        op_type = OperationType(name, apply, declared_commutative)
        self._types[name] = op_type
        return op_type

    def get(self, name: str) -> OperationType:
        if name not in self._types:
            raise SimulationError(f"unknown operation type {name!r}")
        return self._types[name]

    def apply(self, state: Any, op: Operation) -> Any:
        """Apply one operation through its registered type."""
        return self.get(op.op_type).apply(state, op)

    def names(self) -> list:
        return list(self._types)
