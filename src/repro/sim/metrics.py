"""Measurement primitives for experiments: counters and histograms.

All values are recorded against *simulated* time. The experiment harness
reads these out after a run to print the paper-shaped tables.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import SimulationError


class Counter:
    """A monotonically adjustable named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Stores raw observations; computes summary stats on demand.

    Raw storage is fine at simulation scale and keeps percentiles exact.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else math.nan

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else math.nan

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else math.nan

    @property
    def stdev(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0 if n == 1 else math.nan
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / (n - 1))

    def percentile(self, q: float) -> float:
        """Exact percentile by linear interpolation; ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile q={q!r} is outside [0, 100]")
        if not self.values:
            return math.nan
        data = sorted(self.values)
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        # Lerp as base + frac*(delta): exact when the endpoints are equal,
        # where the two-product form can overshoot the data range by ulps.
        return data[low] + frac * (data[high] - data[low])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class MetricsRegistry:
    """Per-simulator registry; metric objects are created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def observe(self, name: str, value: float) -> None:
        """Shorthand: record into the histogram ``name``."""
        self.histogram(name).observe(value)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Shorthand: bump the counter ``name``."""
        self.counter(name).inc(amount)

    def counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)
