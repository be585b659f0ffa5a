"""The §2 abstraction, generic: a fault-tolerant algorithm as a linear
sequence of idempotent sub-algorithms with state checkpointed across the
failure boundary.

"From this perspective, you can imagine stepping across a river from rock
to rock, always keeping one foot on solid ground."

A :class:`PairedAlgorithm` runs a user-supplied **step function**
``step(state, step_index) -> new_state`` on a primary process. Between
steps, state crosses the failure boundary to a backup according to the
:class:`CheckpointCadence`:

- ``EVERY_STEP`` — synchronous: the backup acks each step's state before
  the next step starts (Tandem-1984 flavor; takeover loses nothing).
- ``EVERY_N`` — batched: checkpoint every N steps (group-commit flavor;
  takeover redoes at most N-1 steps).
- ``ASYNC`` — periodic fire-and-forget (log-shipping flavor; takeover
  redoes whatever the last checkpoint missed).

On primary crash the backup takes over **from the last state it
received** and retries forward. Because steps are *idempotent by
contract* (the step function must tolerate re-execution from a
checkpointed state), the overall algorithm completes exactly-once in
effect; the cadence only buys latency at the price of redone work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.errors import CrashedError, SimulationError
from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.resilience import RetryPolicy
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator

#: Synchronous checkpoints cross the failure boundary on the default
#: fixed discipline (``timeout=1.0, retries=3``): the primary is stalled
#: while this call is out, so patience beats backoff here.
CHECKPOINT_POLICY = RetryPolicy(max_attempts=4, timeout=1.0)


class CheckpointCadence(str, enum.Enum):
    EVERY_STEP = "every-step"
    EVERY_N = "every-n"
    ASYNC = "async"


@dataclass
class PairResult:
    """How a run went."""

    final_state: Any
    steps_executed: int       # physical step executions (incl. redone)
    steps_redone: int         # executed more than once due to takeover
    checkpoints_sent: int
    takeovers: int


class PairedAlgorithm:
    """Run one algorithm of ``total_steps`` idempotent steps on a pair."""

    step_duration = 0.01
    name = "pair"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        step: Callable[[Any, int], Any],
        total_steps: int,
        initial_state: Any,
        cadence: CheckpointCadence = CheckpointCadence.EVERY_STEP,
        batch_size: int = 4,
        async_period: float = 0.05,
    ) -> None:
        if total_steps < 1:
            raise SimulationError("need at least one step")
        if batch_size < 1:
            raise SimulationError("batch size must be >= 1")
        self.sim = sim
        self.network = network
        self.step = step
        self.total_steps = total_steps
        self.cadence = CheckpointCadence(cadence)
        self.batch_size = batch_size
        self.async_period = async_period
        # Backup endpoint: receives CHECKPOINT {state, next_step}.
        self.backup_state: Any = initial_state
        self.backup_next_step = 0
        self.backup_endpoint = Endpoint(network, f"{self.name}.backup")
        self.backup_endpoint.register("CHECKPOINT", self._handle_checkpoint)
        self.backup_endpoint.start()
        # Primary endpoint (for symmetry of the fabric accounting).
        self.primary_endpoint = Endpoint(network, f"{self.name}.primary")
        self.primary_endpoint.start()
        self.result = PairResult(
            final_state=initial_state, steps_executed=0, steps_redone=0,
            checkpoints_sent=0, takeovers=0,
        )
        self._executed_steps: set = set()
        self._crash_at_step: Optional[int] = None
        self._crashed_once = False

    # ------------------------------------------------------------------

    def _handle_checkpoint(self, _ep: Endpoint, msg: Any) -> dict:
        self.backup_state = msg.payload["state"]
        self.backup_next_step = msg.payload["next_step"]
        return {}

    def crash_primary_at_step(self, step_index: int) -> None:
        """Arrange a fail-fast crash right after ``step_index`` executes
        (before any checkpoint that would have followed it)."""
        self._crash_at_step = step_index

    # ------------------------------------------------------------------

    def run(self) -> Generator[Any, Any, PairResult]:
        """Drive the algorithm to completion, surviving one crash."""
        state = self.backup_state
        next_step = self.backup_next_step
        try:
            state, next_step = yield from self._run_on_primary(state, next_step)
        except CrashedError:
            # Takeover: resume from what the backup knows.
            self.result.takeovers += 1
            self.sim.trace.emit(self.name, "pair.takeover",
                                resume_at=self.backup_next_step)
            state = self.backup_state
            next_step = self.backup_next_step
            state, next_step = yield from self._run_on_primary(state, next_step)
        self.result.final_state = state
        return self.result

    def _run_on_primary(self, state: Any, next_step: int) -> Generator[Any, Any, tuple]:
        last_checkpoint_time = self.sim.now
        while next_step < self.total_steps:
            yield Timeout(self.step_duration)
            state = self.step(state, next_step)
            self.result.steps_executed += 1
            if next_step in self._executed_steps:
                self.result.steps_redone += 1
            self._executed_steps.add(next_step)
            executed = next_step
            next_step += 1
            if self._crash_at_step == executed and not self._crashed_once:
                self._crashed_once = True
                raise CrashedError(f"{self.name}: primary died after step {executed}")
            if self._should_checkpoint(next_step, last_checkpoint_time):
                yield from self._checkpoint(state, next_step,
                                            wait=self.cadence is not CheckpointCadence.ASYNC)
                last_checkpoint_time = self.sim.now
        # The final state always checkpoints synchronously (the commit).
        yield from self._checkpoint(state, next_step, wait=True)
        return state, next_step

    def _should_checkpoint(self, next_step: int, last_time: float) -> bool:
        if self.cadence is CheckpointCadence.EVERY_STEP:
            return True
        if self.cadence is CheckpointCadence.EVERY_N:
            return next_step % self.batch_size == 0
        return self.sim.now - last_time >= self.async_period

    def _checkpoint(self, state: Any, next_step: int, wait: bool) -> Generator[Any, Any, None]:
        self.result.checkpoints_sent += 1
        if wait:
            yield from self.primary_endpoint.call(
                f"{self.name}.backup", "CHECKPOINT",
                {"state": state, "next_step": next_step},
                policy=CHECKPOINT_POLICY,
            )
        else:
            self.primary_endpoint.cast(
                f"{self.name}.backup", "CHECKPOINT",
                {"state": state, "next_step": next_step},
            )
            yield Timeout(0.0)
