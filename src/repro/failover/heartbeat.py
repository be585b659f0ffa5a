"""Periodic heartbeats over the real (partitionable) fabric.

The emitter casts fire-and-forget ``HEARTBEAT`` messages from its node's
endpoint to a monitor endpoint. Nothing here consults liveness truth:
if the node is partitioned from the monitor the casts are dropped by the
network, and if the node crashed its endpoint is detached — either way
the monitor simply stops hearing from it, which is exactly the §2
ambiguity the detector has to act on.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.net.rpc import Endpoint
from repro.sim.events import Timeout


class HeartbeatEmitter:
    """Casts ``HEARTBEAT {node, seq, epoch}`` every ``interval``."""

    def __init__(
        self,
        endpoint: Endpoint,
        monitor: str,
        node: Optional[str] = None,
        interval: float = 0.25,
        jitter: float = 0.0,
        epoch_of: Optional[Callable[[], int]] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"bad heartbeat interval {interval}")
        # At jitter >= 1 a draw can scale the delay to zero or below.
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(f"heartbeat jitter {jitter} outside [0, 1)")
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.monitor = monitor
        self.node = node or endpoint.name
        self.interval = interval
        self.jitter = jitter
        self.epoch_of = epoch_of
        self._proc = None
        self._seq = 0

    def start(self) -> None:
        if self._proc is not None and self._proc.alive:
            return
        self._proc = self.sim.spawn(self._loop(), name=f"heartbeat:{self.node}")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stopped")
            self._proc = None

    def _loop(self) -> Generator[Any, Any, None]:
        rng = (
            self.sim.rng.stream(f"failover.hb.{self.node}")
            if self.jitter else None
        )
        while True:
            delay = self.interval
            if rng is not None:
                delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
            yield Timeout(delay)
            self._seq += 1
            self.endpoint.cast(
                self.monitor,
                "HEARTBEAT",
                {
                    "node": self.node,
                    "seq": self._seq,
                    "epoch": self.epoch_of() if self.epoch_of else 0,
                },
            )
            self.sim.metrics.inc("failover.heartbeats_sent")
