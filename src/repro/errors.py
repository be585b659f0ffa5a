"""Exception hierarchy shared across the package.

The hierarchy mirrors the paper's vocabulary: a crash is a fail-fast event
(§2.2), a rule violation is the probabilistic-enforcement miss the
application must apologize for (§5.2, §5.6), and an escrow overflow is the
worst-case bound check of the escrow-locking sidebar (§5.3).
"""

from __future__ import annotations


class QuicksandError(Exception):
    """Base class for every error raised by this package."""


class SimulationError(QuicksandError):
    """The discrete-event kernel was used incorrectly (e.g. negative delay)."""


class CrashedError(QuicksandError):
    """Raised inside a simulated process when its node fail-fast crashes,
    or when interacting with a crashed component."""


class TimeoutError_(QuicksandError):
    """A simulated request/reply timed out.

    Named with a trailing underscore to avoid shadowing the builtin while
    still reading naturally at call sites (``except TimeoutError_``).
    """


class DeadlineExceeded(TimeoutError_):
    """A call's overall deadline passed before a useful reply arrived.

    Subclasses :class:`TimeoutError_` so callers that treat "the fabric
    gave me nothing in time" uniformly keep working; the distinct type
    lets policy-aware callers tell budget exhaustion from a lost packet.
    """


class ServerBusyError(TimeoutError_):
    """Every attempt was shed by server-side admission control (a BUSY
    reply): the server is alive but refusing work beyond its watermark."""


class BreakerOpenError(QuicksandError):
    """A call was short-circuited locally because the destination's
    circuit breaker is open — no message was sent."""

    def __init__(self, dst: str, detail: str = "") -> None:
        super().__init__(f"circuit to {dst!r} is open{': ' + detail if detail else ''}")
        self.dst = dst


class StaleEpochError(QuicksandError):
    """An operation carried a fencing token from a deposed regime.

    Takeover is a guess (§2–3: a backup cannot distinguish a dead
    primary from a slow one). When the guess is wrong, the old primary
    is still alive and still writing; fencing makes its traffic *bounce*
    — rejected with this error — instead of silently clobbering the new
    regime's state. The bounced work becomes an explicit apology, not a
    lost update.
    """

    def __init__(self, detail: str = "", epoch: int = 0, current: int = 0) -> None:
        super().__init__(detail or f"epoch {epoch} is fenced (current {current})")
        self.epoch = epoch
        self.current = current


class InterruptError(QuicksandError):
    """A simulated process was interrupted (e.g. by a crash or a kill)."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class TransactionAborted(QuicksandError):
    """A transaction was aborted; the system rules always permit this
    ("transactions may abort without cause", §3.3)."""

    def __init__(self, txn_id: object, reason: str = "") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class RuleViolation(QuicksandError):
    """A business rule was (or would be) violated.

    Under synchronous/coordinated enforcement this is raised before the
    action takes effect; under probabilistic enforcement it is detected
    after the fact during reconciliation and becomes an apology.
    """

    def __init__(self, rule: str, detail: str = "") -> None:
        super().__init__(f"rule {rule!r} violated: {detail}")
        self.rule = rule
        self.detail = detail


class EscrowOverflow(QuicksandError):
    """An escrow operation could push the value out of its [min, max]
    bounds in the worst case of all pending transactions."""
