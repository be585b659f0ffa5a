"""Failure detectors: suspicion accrued from observed heartbeat gaps.

A detector never reads registry truth (``node.up``); it only sees what
arrives at the monitor endpoint. Its verdict is therefore a *guess* —
the paper's point, not an implementation shortcut. The machinery keeps
the guess honest:

- ``suspicion(node)`` is normalized so ``>= 1.0`` means convict, for
  every variant; the conviction threshold sweep of E14 scales it.
- A conviction is latched (acting on it — takeover — is irreversible in
  the interesting way), but a heartbeat arriving *after* conviction is
  recorded as a **contradiction**: the node was alive all along, the
  takeover was a false one. ``failover.false_convictions`` is the
  measured wrong-guess rate.
- :meth:`bind_view` lets the detector drive a local
  :class:`~repro.cluster.gossip_membership.MembershipView`: convictions
  suspect members, contradictions clear the suspicion.

Determinism: suspicion is a pure function of arrival times and sim.now;
the poll loop runs on fixed sim-time ticks and draws no RNG.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator

#: Conviction/contradiction observers: ``cb(node, at)``.
Observer = Callable[[str, float], None]


class FailureDetector:
    """Base class: arrival bookkeeping, conviction latching, observers."""

    def __init__(self, sim: Simulator, nodes: Sequence[str], name: str = "detector") -> None:
        self.sim = sim
        self.name = name
        self.nodes: List[str] = list(nodes)
        self._last_arrival: Dict[str, float] = {}
        self._watch_start: Dict[str, float] = {}
        self._convicted_at: Dict[str, float] = {}
        self._contradicted: Dict[str, bool] = {}
        self._on_convict: List[Observer] = []
        self._on_contradiction: List[Observer] = []

    # ------------------------------------------------------------------
    # Observations

    def heartbeat(self, node: str) -> None:
        """Record one observed heartbeat (call from the monitor handler)."""
        if node not in self.nodes:
            self.nodes.append(node)
        now = self.sim.now
        if node in self._convicted_at and not self._contradicted.get(node):
            # The corpse spoke: the conviction was a wrong guess.
            self._contradicted[node] = True
            self.sim.metrics.inc("failover.false_convictions")
            self.sim.trace.emit(
                self.name, "false_conviction",
                node=node, convicted_at=self._convicted_at[node],
            )
            for observer in self._on_contradiction:
                observer(node, now)
        gap = None
        if node in self._last_arrival:
            gap = now - self._last_arrival[node]
        self._observe_gap(node, gap)
        self._last_arrival[node] = now
        self.sim.metrics.inc("failover.heartbeats_seen")

    def _observe_gap(self, node: str, gap: Optional[float]) -> None:
        """Subclass hook: one inter-arrival sample (None for the first)."""

    # ------------------------------------------------------------------
    # Verdicts

    def suspicion(self, node: str) -> float:
        """Normalized suspicion; ``>= 1.0`` convicts. Pure in sim.now."""
        raise NotImplementedError

    def convicted(self, node: str) -> bool:
        return node in self._convicted_at

    def conviction_time(self, node: str) -> Optional[float]:
        return self._convicted_at.get(node)

    def was_contradicted(self, node: str) -> bool:
        return bool(self._contradicted.get(node))

    def pardon(self, node: str) -> None:
        """Clear a conviction (e.g. after reintegration) so the node can
        be watched — and convicted — afresh."""
        self._convicted_at.pop(node, None)
        self._contradicted.pop(node, None)

    def on_convict(self, observer: Observer) -> None:
        self._on_convict.append(observer)

    def on_contradiction(self, observer: Observer) -> None:
        self._on_contradiction.append(observer)

    def bind_view(self, view: Any) -> None:
        """Emit verdicts into a local, gossiped
        :class:`~repro.cluster.gossip_membership.MembershipView`, never
        a shared oracle: a conviction becomes a *suspicion*
        (refutable, disseminated as a rumor), and a post-conviction
        heartbeat — the contradiction — clears it by advancing the
        member's incarnation past the accusation."""
        self.on_convict(lambda node, _at: view.suspect(node))
        self.on_contradiction(lambda node, _at: view.clear_suspicion(node))

    # ------------------------------------------------------------------
    # The poll loop

    def poll_loop(self, poll_interval: float) -> Generator[Any, Any, None]:
        """The watch, to spawn on the monitor's endpoint: every
        ``poll_interval`` sim-seconds, evaluate suspicion for each
        watched node and convict at ``>= 1.0``. The interval is checked,
        and the watched nodes' silence clocks started, at the call."""
        if poll_interval <= 0:
            raise SimulationError(f"bad poll interval {poll_interval}")
        now = self.sim.now
        for node in self.nodes:
            self._watch_start.setdefault(node, now)
        return self._polls(poll_interval)

    def _polls(self, poll_interval: float) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(poll_interval)
            for node in list(self.nodes):
                if node in self._convicted_at:
                    continue
                self._watch_start.setdefault(node, self.sim.now)
                if self.suspicion(node) >= 1.0:
                    self._convict(node)

    def _convict(self, node: str) -> None:
        at = self.sim.now
        self._convicted_at[node] = at
        self.sim.metrics.inc("failover.convictions")
        self.sim.trace.emit(
            self.name, "convict", node=node, gap=round(self._gap(node), 6)
        )
        for observer in self._on_convict:
            observer(node, at)

    # ------------------------------------------------------------------

    def _gap(self, node: str) -> float:
        """Silence so far: time since the last heartbeat (or since we
        started watching, before any heartbeat arrived)."""
        anchor = self._last_arrival.get(
            node, self._watch_start.get(node, self.sim.now)
        )
        return self.sim.now - anchor


class FixedTimeoutDetector(FailureDetector):
    """The classic discipline: silent longer than ``timeout`` ⇒ dead."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[str],
        timeout: float = 1.0,
        name: str = "detector",
    ) -> None:
        if timeout <= 0:
            raise SimulationError(f"bad detector timeout {timeout}")
        super().__init__(sim, nodes, name=name)
        self.timeout = timeout

    def suspicion(self, node: str) -> float:
        return self._gap(node) / self.timeout


class PhiAccrualDetector(FailureDetector):
    """Phi-accrual: suspicion from the observed inter-arrival distribution.

    ``phi = -log10 P(gap >= current silence)`` under a normal fit of the
    last :attr:`window` inter-arrival samples; conviction when ``phi >=``
    :attr:`threshold`. Until :attr:`min_samples` arrivals have been seen,
    falls back to the fixed-timeout rule with :attr:`bootstrap_timeout`.
    """

    threshold = 8.0
    window = 100
    min_samples = 3
    bootstrap_timeout = 1.0
    min_std = 0.01

    def __init__(self, sim: Simulator, nodes: Sequence[str]) -> None:
        super().__init__(sim, nodes)
        self._samples: Dict[str, Deque[float]] = {}

    def _observe_gap(self, node: str, gap: Optional[float]) -> None:
        if gap is None:
            return
        self._samples.setdefault(node, deque(maxlen=self.window)).append(gap)

    def phi(self, node: str) -> float:
        samples = self._samples.get(node, ())
        if len(samples) < self.min_samples:
            # Not enough history for a distribution; borrow the fixed rule
            # scaled so suspicion 1.0 still maps to phi == threshold.
            return (self._gap(node) / self.bootstrap_timeout) * self.threshold
        mean = sum(samples) / len(samples)
        variance = sum((s - mean) ** 2 for s in samples) / len(samples)
        std = max(math.sqrt(variance), self.min_std)
        z = (self._gap(node) - mean) / std
        # Tail probability of the normal; floored so phi stays finite.
        tail = max(0.5 * math.erfc(z / math.sqrt(2.0)), 1e-30)
        return -math.log10(tail)

    def suspicion(self, node: str) -> float:
        return self.phi(node) / self.threshold
