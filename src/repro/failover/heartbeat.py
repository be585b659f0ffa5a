"""Periodic heartbeats over the real (partitionable) fabric.

The emitter casts fire-and-forget ``HEARTBEAT`` messages from its node's
endpoint to a monitor endpoint. Nothing here consults liveness truth:
if the node is partitioned from the monitor the casts are dropped by the
network, and if the node crashed its endpoint is detached — either way
the monitor simply stops hearing from it, which is exactly the §2
ambiguity the detector has to act on.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.net.rpc import Endpoint
from repro.sim.events import Timeout


class HeartbeatEmitter:
    """Casts ``HEARTBEAT {node, seq}`` every :attr:`interval`."""

    interval = 0.25

    def __init__(self, endpoint: Endpoint, monitor: str) -> None:
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.monitor = monitor
        self.node = endpoint.name
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
        while True:
            yield Timeout(self.interval)
            self._seq += 1
            self.endpoint.cast(
                self.monitor, "HEARTBEAT", {"node": self.node, "seq": self._seq}
            )
            self.sim.metrics.inc("failover.heartbeats_sent")
