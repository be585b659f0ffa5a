"""Risk policies: choosing consistency per operation (§5.5).

"Locally clear a check if the face value is less than $10,000. If it
exceeds $10,000, double check with all the replicas." A risk policy maps
an operation to the enforcement it deserves — the application slides
between availability and consistency *within* one workload, at any
granularity it likes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.operation import Operation
from repro.core.rules import Enforcement


class RiskPolicy:
    """Base policy: a callable deciding enforcement per operation."""

    def __init__(self, decide: Callable[[Operation], Enforcement]) -> None:
        self._decide = decide

    def enforcement_for(self, op: Operation) -> Enforcement:
        return self._decide(op)

    def requires_coordination(self, op: Operation) -> bool:
        return self.enforcement_for(op) is Enforcement.COORDINATED


class ThresholdRiskPolicy(RiskPolicy):
    """The $10,000 check: coordinate when a numeric attribute of the
    operation is at or above ``threshold``; act locally below it.

    The at-risk quantity is ``op.args["amount"]``; missing/non-numeric
    values count as zero — riskless.
    """

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold

        def decide(op: Operation) -> Enforcement:
            if _amount(op) >= self.threshold:
                return Enforcement.COORDINATED
            return Enforcement.LOCAL

        super().__init__(decide)


def _amount(op: Operation) -> float:
    value = op.args.get("amount", 0)
    try:
        return float(value)
    except (TypeError, ValueError):
        return 0.0


class AdaptiveRiskPolicy(RiskPolicy):
    """Manage the probabilities (§5.5, §5.6): keep the apology rate near a
    business target by sliding the coordination threshold.

    The application reports outcomes back (:meth:`record_outcome`); when
    the recent apology rate runs hot the threshold tightens (more
    operations coordinate — slower, safer), when it runs cold the
    threshold relaxes (more local guesses — faster, riskier). "You can
    dynamically slide between these positions... and adjust the
    probabilities and possibilities" (§7.1).
    """

    target_apology_rate = 0.02
    #: Outcomes per adjustment.
    window = 50

    def __init__(
        self,
        initial_threshold: float,
        adjustment_factor: float = 1.5,
        min_threshold: float = 1.0,
        max_threshold: float = 1e9,
    ) -> None:
        if adjustment_factor <= 1.0:
            raise ValueError("adjustment_factor must exceed 1")
        self.threshold = initial_threshold
        self.adjustment_factor = adjustment_factor
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self._recent: list = []  # True = apology, False = clean
        self.adjustments = 0

        def decide(op: Operation) -> Enforcement:
            if _amount(op) >= self.threshold:
                return Enforcement.COORDINATED
            return Enforcement.LOCAL

        super().__init__(decide)

    def record_outcome(self, caused_apology: bool) -> None:
        """Feed back one locally-guessed operation's eventual fate. When
        the window fills, the threshold slides and the window resets."""
        self._recent.append(bool(caused_apology))
        if len(self._recent) < self.window:
            return
        rate = sum(self._recent) / len(self._recent)
        self._recent.clear()
        if rate > self.target_apology_rate:
            self.threshold = max(
                self.min_threshold, self.threshold / self.adjustment_factor
            )
            self.adjustments += 1
        elif rate < self.target_apology_rate / 2:
            self.threshold = min(
                self.max_threshold, self.threshold * self.adjustment_factor
            )
            self.adjustments += 1

    @property
    def recent_count(self) -> int:
        return len(self._recent)
