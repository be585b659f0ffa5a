"""Link latency models.

The paper's argument turns on the *relative* cost of crossing failure
boundaries: intra-box checkpoint messages are cheap (the Tandem bus),
cross-datacenter log shipping is expensive. Latency models let experiments
dial that in explicitly.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.errors import SimulationError


class LatencyModel(Protocol):
    """Samples one-way delivery delay for a message."""

    def sample(self, rng: random.Random) -> float:
        """Return a non-negative delay in simulated seconds."""
        ...


class FixedLatency:
    """Constant delay."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative latency: {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay


class UniformLatency:
    """Uniform in [low, high]."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise SimulationError(f"bad uniform range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        # The expression ``rng.uniform(low, high)`` evaluates, minus the
        # Python-level call: the draw is bit-identical.
        return self.low + (self.high - self.low) * rng.random()


class ExponentialLatency:
    """A floor plus an exponential tail — the classic network-delay shape."""

    def __init__(self, floor: float, mean_extra: float) -> None:
        if floor < 0 or mean_extra < 0:
            raise SimulationError(f"bad exponential params {floor}, {mean_extra}")
        self.floor = floor
        self.mean_extra = mean_extra

    def sample(self, rng: random.Random) -> float:
        if self.mean_extra == 0:
            return self.floor
        return self.floor + rng.expovariate(1.0 / self.mean_extra)
