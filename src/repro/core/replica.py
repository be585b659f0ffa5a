"""A replica: memories, guesses, and the hooks where apologies start.

``submit`` is ingress: the operation gets this replica's best-effort
treatment — business rules are checked against *local* knowledge only
(that's the guess), the op joins the memories, and state moves forward.
``integrate`` is how remote work arrives; rule violations discovered
during integration are the "Oh, crap!" moments (§5.7). They are settled
in the ledger rather than rejected — the work already happened
somewhere else.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.core.guesses import ACCEPTED, Apology, Ledger
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
        ledger: Optional[Ledger] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.registry = registry
        self.rules = rules
        self.ledger = ledger if ledger is not None else Ledger()
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
        self.ledger.guess(op.uniquifier, ACCEPTED, self.name)
        return True

    def integrate(self, ops: Iterable[Operation]) -> List[Apology]:
        """Merge remote operations; returns the apologies generated.

        Integration never rejects work — it already happened. Rules are
        re-evaluated on the post-merge state; when one is violated, the
        merged knowledge is settled in the canonical order (§5.6).
        """
        violated = False
        for op in ops:
            if not self.ops.add(op):
                continue
            self.state = self.registry.apply(self.state, op)
            if self.rules is not None and self.rules.check_integrated(self.state, op):
                violated = True
        return self._settle() if violated else []

    def _settle(self) -> List[Apology]:
        """Replay every known op in the canonical order, the order the
        work was presented in, and apologize once for each op whose own
        step breaks a rule. Every op was accepted somewhere on local
        knowledge, so each is a guess, whichever replica acked it; the
        arrival order would blame whichever op happened to arrive last."""
        apologies: List[Apology] = []
        state = self.registry.initial_state()
        for op in self.ops.canonical_order():
            state = self.registry.apply(state, op)
            for violation in self.rules.check_integrated(state, op):
                self.ledger.guess(op.uniquifier, ACCEPTED, op.origin)
                apology = self.ledger.settle(op.uniquifier, violation.detail, violation.rule)
                if apology is not None:
                    apologies.append(apology)
        return apologies

    # ------------------------------------------------------------------

    def knows(self, uniquifier: str) -> bool:
        return uniquifier in self.ops

    def canonical_state(self) -> Any:
        """State under the canonical order (for convergence checks)."""
        return self.ops.canonical_fold(self.registry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Replica {self.name} ops={len(self.ops)}>"
