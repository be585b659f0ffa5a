"""Circuit breakers: stop calling a destination that stopped answering.

A breaker is a per-destination closed / open / half-open state machine
driven entirely by simulated time:

- **closed** — calls flow; consecutive transport failures are counted.
- **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: calls are short-circuited locally (no message is sent)
  until ``recovery_time`` has elapsed.
- **half-open** — after the cool-off, up to ``half_open_probes``
  concurrent probe calls may pass. ``success_threshold`` consecutive
  probe successes re-close the breaker; any probe failure re-opens it
  and restarts the clock.

Only transport-shaped outcomes count as failures (timeouts, BUSY
rejections): a remote *application* error proves the destination is
alive and answering. Every transition emits a trace event and bumps a
metric, so chaos runs can assert breaker behaviour bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import SimulationError


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recover knobs shared by every destination's breaker."""

    recovery_time: float = 1.0    # open -> half-open cool-off, sim seconds
    half_open_probes: int = 1     # concurrent calls allowed half-open
    failure_threshold = 5         # consecutive failures that trip it
    success_threshold = 1         # probe successes needed to re-close

    def __post_init__(self) -> None:
        if self.recovery_time <= 0:
            raise SimulationError("recovery_time must be positive")
        if self.half_open_probes < 1:
            raise SimulationError("half_open_probes must be >= 1")


class CircuitBreaker:
    """One destination's breaker, owned by a caller endpoint."""

    __slots__ = ("sim", "owner", "dst", "config", "state", "failures",
                 "successes", "probes_inflight", "opened_at", "last_probe_at")

    def __init__(self, sim: Any, owner: str, dst: str, config: BreakerConfig) -> None:
        self.sim = sim
        self.owner = owner
        self.dst = dst
        self.config = config
        self.state = BreakerState.CLOSED
        self.failures = 0          # consecutive, while closed
        self.successes = 0         # consecutive probe successes, half-open
        self.probes_inflight = 0
        self.opened_at = 0.0
        self.last_probe_at = 0.0

    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """Consulted before sending. May transition open -> half-open on
        the simulated clock; acquires a probe slot when half-open."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            # Sum-form comparison on purpose: rounding is monotone under
            # addition, so waiting exactly recovery_time always reopens,
            # while (now - opened_at) can round below it and wedge.
            if self.sim.now < self.opened_at + self.config.recovery_time:
                self.sim.metrics.inc(f"resilience.breaker.{self.owner}.short_circuits")
                return False
            self._transition(BreakerState.HALF_OPEN)
            self.successes = 0
            self.probes_inflight = 0
        if self.probes_inflight >= self.config.half_open_probes:
            if self.sim.now >= self.last_probe_at + self.config.recovery_time:
                # Every outstanding probe is older than a full cool-off:
                # whatever transport carried it has long since timed out
                # without reporting back. Reclaim the slots, or abandoned
                # probes wedge the breaker half-open forever.
                self.probes_inflight = 0
            else:
                self.sim.metrics.inc(f"resilience.breaker.{self.owner}.short_circuits")
                return False
        self.probes_inflight += 1
        self.last_probe_at = self.sim.now
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self.probes_inflight = max(0, self.probes_inflight - 1)
            self.successes += 1
            if self.successes >= self.config.success_threshold:
                self._transition(BreakerState.CLOSED)
                self.failures = 0
        elif self.state is BreakerState.CLOSED:
            self.failures = 0
        # A success while OPEN (late reply from before the trip) is stale
        # evidence: ignore it, the cool-off clock decides.

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self.probes_inflight = max(0, self.probes_inflight - 1)
            self._trip()
        elif self.state is BreakerState.CLOSED:
            self.failures += 1
            if self.failures >= self.config.failure_threshold:
                self._trip()
        # Failures while OPEN don't extend the cool-off: the breaker
        # already knows, and extending would let stragglers pin it open.

    # ------------------------------------------------------------------

    def _trip(self) -> None:
        self._transition(BreakerState.OPEN)
        self.opened_at = self.sim.now
        self.successes = 0

    def _transition(self, to: BreakerState) -> None:
        if to is self.state:
            return
        self.sim.trace.emit(
            self.owner, f"breaker.{to.value}", dst=self.dst, was=self.state.value,
        )
        self.sim.metrics.inc(f"resilience.breaker.{self.owner}.{to.value}")
        self.state = to

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CircuitBreaker {self.owner}->{self.dst} {self.state.value}>"


class BreakerBoard:
    """The caller's per-destination breakers, created lazily."""

    __slots__ = ("sim", "owner", "config", "_breakers")

    def __init__(self, sim: Any, owner: str, config: BreakerConfig) -> None:
        self.sim = sim
        self.owner = owner
        self.config = config
        self._breakers: Dict[str, CircuitBreaker] = {}

    def for_dst(self, dst: str) -> CircuitBreaker:
        breaker = self._breakers.get(dst)
        if breaker is None:
            breaker = self._breakers[dst] = CircuitBreaker(
                self.sim, self.owner, dst, self.config
            )
        return breaker

    def states(self) -> Dict[str, BreakerState]:
        return {dst: b.state for dst, b in self._breakers.items()}
