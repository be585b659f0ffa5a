"""Server-side admission control: bound the queue, shed the doomed.

An overloaded idempotent server has three honest answers, in order of
preference (Creek-style degraded reads make the first possible):

1. a *degraded* reply — a stale "guess" now, an apology later;
2. a fast **BUSY** rejection — the caller's policy backs off;
3. silence — only for requests whose deadline already passed, where the
   caller has provably stopped listening.

:class:`AdmissionControl` makes the decision; the endpoint enforces it
in ``_dispatch`` before any handler work is spawned. ``max_inflight``
bounds concurrently-served handlers (the watermark), and a request whose
carried deadline (see :mod:`repro.resilience.deadline`) has lapsed is
dropped. Both decisions are traced
and counted so experiments can account every shed request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import SimulationError
from repro.resilience.deadline import DEADLINE_KEY


class Admission(str, enum.Enum):
    """The verdict for one arriving request."""

    ADMIT = "admit"
    BUSY = "busy"        # beyond the in-flight watermark
    EXPIRED = "expired"  # deadline already passed; nobody is listening


@dataclass(frozen=True)
class AdmissionConfig:
    """Load-shedding knobs for one serving endpoint."""

    max_inflight: int = 64     # handler processes allowed concurrently

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise SimulationError("max_inflight must be >= 1")


class AdmissionControl:
    """Decides admit / busy / expired for a serving endpoint."""

    __slots__ = ("sim", "owner", "config")

    def __init__(self, sim: Any, owner: str, config: AdmissionConfig) -> None:
        self.sim = sim
        self.owner = owner
        self.config = config

    def decide(self, inflight: int, payload: Dict[str, Any]) -> Admission:
        """The verdict for a request arriving with ``inflight`` handlers
        already running. Expiry is checked first: an expired request is
        shed even when there is capacity — serving it is pure waste."""
        deadline = payload.get(DEADLINE_KEY)
        if deadline is not None and self.sim.now > deadline:
            self.sim.metrics.inc(f"resilience.admission.{self.owner}.shed_expired")
            return Admission.EXPIRED
        if inflight >= self.config.max_inflight:
            self.sim.metrics.inc(f"resilience.admission.{self.owner}.shed_busy")
            return Admission.BUSY
        return Admission.ADMIT
