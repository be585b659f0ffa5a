"""A replica: memories, guesses, and the hooks where apologies start.

``submit`` is ingress: the operation gets this replica's best-effort
treatment — business rules are checked against *local* knowledge only
(that's the guess), the op joins the memories, and state moves forward.
``integrate`` is how remote work arrives; rule violations discovered
during integration are the "Oh, crap!" moments (§5.7) and are routed to
the apology queue rather than rejected — the work already happened
somewhere else.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.core.guesses import Apology, ApologyQueue, GuessLedger
from repro.core.operation import Operation, TypeRegistry
from repro.core.oplog import OpSet
from repro.core.rules import RuleEngine


class Replica:
    """One replica of an operation-centric application."""

    def __init__(
        self,
        name: str,
        registry: TypeRegistry,
        rules: Optional[RuleEngine] = None,
        apologies: Optional[ApologyQueue] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.registry = registry
        self.rules = rules
        self.apologies = apologies if apologies is not None else ApologyQueue()
        self.guesses = GuessLedger()
        self.ops = OpSet()
        self.state = registry.initial_state()
        self._clock = clock or (lambda: 0.0)

    # ------------------------------------------------------------------

    def submit(self, op: Operation) -> bool:
        """Ingress of new work at this replica.

        Returns False (and does nothing) for a duplicate uniquifier.
        Raises :class:`~repro.errors.RuleViolation` if a locally-checkable
        rule rejects the operation outright (the replica can still say no
        at ingress — that is the one moment it has the chance).
        """
        if op in self.ops:
            return False
        if not op.origin:
            op.origin = self.name
        if op.ingress_time == 0.0:
            op.ingress_time = self._clock()
        prospective = self.registry.apply(self.state, op)
        if self.rules is not None:
            # Refusal is judged on the state this op would produce, using
            # local knowledge only — the best a disconnected replica can do.
            self.rules.check_submit(prospective, op)  # may raise RuleViolation
        self.ops.add(op)
        self.state = prospective
        self.guesses.record(
            op.uniquifier,
            basis=f"local state of {self.name} at t={op.ingress_time:.6g}",
        )
        return True

    def integrate(self, ops: Iterable[Operation]) -> List[Apology]:
        """Merge remote operations; returns the apologies generated.

        Integration never rejects work — it already happened. Rules are
        re-evaluated on the post-merge state, and violations become
        apologies (§5.6).
        """
        new_apologies: List[Apology] = []
        for op in ops:
            if not self.ops.add(op):
                continue
            self.state = self.registry.apply(self.state, op)
            if self.rules is not None:
                for violation in self.rules.check_integrated(self.state, op):
                    apology = Apology(
                        rule=violation.rule,
                        op_uniquifier=op.uniquifier,
                        detail=violation.detail,
                        replica=self.name,
                        time=self._clock(),
                    )
                    self.apologies.enqueue(apology)
                    new_apologies.append(apology)
        return new_apologies

    # ------------------------------------------------------------------

    def knows(self, uniquifier: str) -> bool:
        return uniquifier in self.ops

    def canonical_state(self) -> Any:
        """State under the canonical order (for convergence checks)."""
        return self.ops.canonical_fold(self.registry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Replica {self.name} ops={len(self.ops)}>"
