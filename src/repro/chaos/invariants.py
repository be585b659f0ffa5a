"""Application-level invariants checked continuously during chaos runs.

The paper's correctness story is not "no failures" but "the application's
own truths hold anyway": money is conserved across replicas, escrow never
overdraws the worst case, and knowledge converges once the replicas can
talk. The monitor registers these as predicates and checks them on a
simulated-time cadence plus once at quiesce; a violation is recorded with
the trace context needed to debug it (and latched, so the first failure
is the reported one). The two promises about acknowledged work (no acked
write lost, one effect per uniquifier) are not here: every scenario
checks them over its recorded client history, in
:mod:`repro.chaos.history`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator

#: A check returns None when the invariant holds, or a human-readable
#: detail string describing the violation.
Check = Callable[[], Optional[str]]


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with debugging context."""

    invariant: str
    time: float
    detail: str
    phase: str  # "cadence" | "quiesce"
    context: Tuple[str, ...] = ()  # trailing trace records at detection

    @property
    def signature(self) -> Tuple[str, str]:
        """What identifies "the same bug" across runs of different plans
        (detection *time* varies with the schedule; the claim does not)."""
        return (self.invariant, self.detail)


@dataclass
class _Registered:
    name: str
    check: Check
    when: str  # "always" | "quiesce"
    violated: bool = field(default=False, init=False)


class InvariantMonitor:
    """Registers predicates; checks them at cadence and at quiesce."""

    #: Trace records a violation carries as its context.
    context_records = 8

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self._registered: List[_Registered] = []
        self._period: Optional[float] = None
        self._until: float = 0.0

    def register(self, name: str, check: Check, when: str = "always") -> None:
        """Add an invariant. ``when="quiesce"`` restricts it to the final
        check (for predicates only meaningful once the world has healed,
        like replica convergence)."""
        if when not in ("always", "quiesce"):
            raise SimulationError(f"bad invariant schedule {when!r}")
        if any(r.name == name for r in self._registered):
            raise SimulationError(f"invariant {name!r} already registered")
        self._registered.append(_Registered(name, check, when))

    def start(self, period: float, until: float) -> None:
        """Begin cadence checking every ``period`` sim-seconds until
        ``until`` (the quiesce check is separate: :meth:`check_now`)."""
        if period <= 0:
            raise SimulationError(f"bad check period {period}")
        self._period = period
        self._until = until
        self.sim.schedule(period, self._tick)

    def _tick(self) -> None:
        self.check_now("cadence")
        if self._period is not None and self.sim.now + self._period <= self._until:
            self.sim.schedule(self._period, self._tick)

    def check_now(self, phase: str = "cadence") -> List[Violation]:
        """Run every applicable, not-yet-violated invariant; returns the
        new violations (also accumulated on ``self.violations``)."""
        found: List[Violation] = []
        for entry in self._registered:
            if entry.violated:
                continue
            if entry.when == "quiesce" and phase != "quiesce":
                continue
            self.sim.metrics.inc("chaos.invariant.checks")
            detail = entry.check()
            if detail is None:
                continue
            entry.violated = True
            violation = Violation(
                invariant=entry.name,
                time=self.sim.now,
                detail=detail,
                phase=phase,
                context=tuple(repr(r) for r in self.sim.trace.tail(self.context_records)),
            )
            found.append(violation)
            self.violations.append(violation)
            self.sim.metrics.inc("chaos.invariant.violations")
            self.sim.metrics.inc(f"chaos.violation.{entry.name}")
            self.sim.trace.emit(
                "chaos", "invariant.violation", invariant=entry.name, detail=detail
            )
        return found


# ----------------------------------------------------------------------
# Predicate builders for the repo's applications


def balance_matches_entries(replicas: Sequence[Any]) -> Check:
    """The bank fold is self-consistent: every replica's balance equals
    the sum of its entry deltas (guards state corruption on recovery)."""

    def check() -> Optional[str]:
        for replica in replicas:
            total = sum(delta for _u, _k, delta in replica.state["entries"])
            if abs(total - replica.state["balance"]) > 1e-6:
                return (
                    f"{replica.name}: balance {replica.state['balance']:.2f} "
                    f"!= entry sum {total:.2f}"
                )
        return None

    return check


def no_money_created(
    replicas: Sequence[Any], expected_deposits: Callable[[], float]
) -> Check:
    """Conservation of money: no replica may know more deposited money
    than the workload actually put in (catches non-idempotent recovery
    re-crediting — forgotten memories, in the paper's terms)."""

    def check() -> Optional[str]:
        expected = expected_deposits()
        for replica in replicas:
            seen = sum(
                delta
                for _u, kind, delta in replica.state["entries"]
                if kind == "DEPOSIT"
            )
            if seen > expected + 1e-6:
                return (
                    f"{replica.name}: deposits {seen:.2f} exceed the "
                    f"{expected:.2f} the workload made"
                )
        return None

    return check


def _states_equivalent(left: Any, right: Any) -> bool:
    """Structural equality, except floats compare within tolerance: the
    folds are commutative in *value* terms, but float addition is not
    associative, so replicas that applied the same ops in different
    orders legitimately differ in the last bits of a sum."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-6)
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _states_equivalent(left[key], right[key]) for key in left
        )
    return left == right


def replicas_converge(replicas: Sequence[Any]) -> Check:
    """After heal + anti-entropy, every replica holds the same knowledge
    and the same folded state (quiesce-only in most scenarios)."""

    def check() -> Optional[str]:
        if not replicas:
            return None
        reference = replicas[0]
        for replica in replicas[1:]:
            ours, theirs = reference.ops.uniquifiers(), replica.ops.uniquifiers()
            if ours != theirs:
                return (
                    f"{replica.name} and {reference.name} disagree on "
                    f"{len(ours ^ theirs)} ops"
                )
            if not _states_equivalent(replica.state, reference.state):
                return f"{replica.name} state diverges from {reference.name}"
        return None

    return check


def escrow_non_negative(account: Any) -> Check:
    """Escrow safety: the committed value and the pessimistic worst case
    both stay at or above the account's floor."""

    def check() -> Optional[str]:
        if account.value < account.minimum - 1e-9:
            return f"{account.name}: value {account.value} below {account.minimum}"
        if account.worst_case_low < account.minimum - 1e-9:
            return (
                f"{account.name}: worst case {account.worst_case_low} "
                f"breaches minimum {account.minimum}"
            )
        return None

    return check
