"""Retry policies: how often, how patiently, and for how long.

The paper's §2.1 client "retries on timer expiry" — but *how* it retries
decides whether a transient fault stays transient. A fixed timer with
unbounded enthusiasm turns one slow server into a retry storm: every
timeout adds offered load exactly when capacity dropped. A
:class:`RetryPolicy` makes the discipline explicit and reusable:

- ``fixed`` or ``exponential`` backoff between attempts, with
  deterministic seeded jitter (drawn from a named ``sim.rng`` stream, so
  two runs under one seed produce bit-identical schedules);
- ``max_attempts`` and a per-attempt ``timeout``;
- an optional overall ``deadline`` — the total budget for the call,
  propagated to the server in the message payload so work that can no
  longer be answered in time can be shed (see
  :mod:`repro.resilience.deadline`).

The default policy, ``RetryPolicy()``, is what an un-policied
``Endpoint.call`` uses: four attempts on a one-second timer with no
pause between them and no RNG draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError

#: Payload key carrying the absolute simulated-time deadline.
DEADLINE_KEY = "deadline"


@dataclass(frozen=True)
class RetryPolicy:
    """When to give up and how long to wait between tries.

    ``jitter`` is the +/- fraction applied to each backoff delay
    (``0.5`` means a delay is scaled by a uniform draw from [0.5, 1.5]).
    Jitter consumes randomness only when both ``jitter`` and the delay
    are non-zero, so un-jittered policies perturb no RNG stream.
    """

    max_attempts: int = 4
    timeout: float = 1.0          # per-attempt reply timer, seconds
    backoff: str = "fixed"        # "fixed" | "exponential"
    base_delay: float = 0.0       # pause before retry N (fixed), or the
                                  # exponential ramp's first step
    max_delay: float = 30.0       # backoff ceiling
    jitter: float = 0.0           # +/- fraction of the delay
    deadline: Optional[float] = None  # overall budget, seconds from first send
    multiplier = 2.0              # exponential growth per retry
    rng_stream = "resilience.retry"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(f"need at least one attempt, got {self.max_attempts}")
        if self.timeout <= 0:
            raise SimulationError(f"non-positive attempt timeout {self.timeout}")
        if self.backoff not in ("fixed", "exponential"):
            raise SimulationError(f"unknown backoff kind {self.backoff!r}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise SimulationError("negative backoff delay")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError(f"jitter {self.jitter} outside [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise SimulationError(f"non-positive deadline {self.deadline}")

    # ------------------------------------------------------------------

    def backoff_delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The pause before attempt number ``attempt`` (1-based retries:
        attempt 0 is the first send and never waits)."""
        if attempt <= 0 or self.base_delay == 0.0:
            return 0.0
        if self.backoff == "fixed":
            delay = self.base_delay
        else:
            delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and delay > 0.0:
            if rng is None:
                raise SimulationError("jittered policy needs an rng stream")
            delay *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return delay
