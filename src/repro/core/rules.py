"""Business rules and their (possibly probabilistic) enforcement.

§5.2: "If a primary uses asynchronous checkpointing and applies a
business rule on the incoming work, it is necessarily a probabilistic
rule." A :class:`BusinessRule` is a predicate over (state, op),
checked at ingress and again after integration. The :class:`Enforcement`
a risk policy picks for an op says what the ingress check knows:

- ``LOCAL`` — at ingress, against this replica's knowledge only. Cheap,
  available, and probabilistic: concurrent work at other replicas can
  still combine into a violation, which surfaces at integration time as
  an apology.
- ``COORDINATED`` — the caller must consult global knowledge before
  ingress (see :class:`repro.core.risk.RiskPolicy` and the apps for how
  that synchronous checkpoint is paid for).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.operation import Operation
from repro.errors import RuleViolation


class Enforcement(str, enum.Enum):
    LOCAL = "local"
    COORDINATED = "coordinated"


@dataclass
class BusinessRule:
    """A named invariant the business cares about.

    ``check(state, op) -> Optional[str]``: None when satisfied, else a
    human-readable violation detail. ``applies_to`` limits the rule to
    certain op types (None = all).
    """

    name: str
    check: Callable[[Any, Operation], Optional[str]]
    applies_to: Optional[frozenset] = None

    def relevant(self, op: Operation) -> bool:
        return self.applies_to is None or op.op_type in self.applies_to


class RuleEngine:
    """Evaluates a rule set at ingress and at integration."""

    def __init__(self, rules: Optional[List[BusinessRule]] = None) -> None:
        self.rules: List[BusinessRule] = list(rules or ())

    def check_submit(self, state: Any, op: Operation) -> None:
        """At ingress: LOCAL and COORDINATED rules may refuse the work.

        The state passed in is whatever knowledge the caller assembled —
        local-only for LOCAL enforcement; the caller is responsible for
        having gathered global knowledge first for COORDINATED rules.
        Raises :class:`RuleViolation` on refusal.
        """
        for rule in self.rules:
            if not rule.relevant(op):
                continue
            detail = rule.check(state, op)
            if detail is not None:
                raise RuleViolation(rule.name, detail)

    def check_integrated(self, state: Any, op: Operation) -> List[RuleViolation]:
        """After merging remote work: every relevant rule is re-evaluated
        on the combined state; violations are returned (not raised) so the
        replica can turn them into apologies."""
        violations: List[RuleViolation] = []
        for rule in self.rules:
            if not rule.relevant(op):
                continue
            detail = rule.check(state, op)
            if detail is not None:
                violations.append(RuleViolation(rule.name, detail))
        return violations
