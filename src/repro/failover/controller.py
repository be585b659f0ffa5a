"""Automatic takeover: heartbeats → conviction → epoch → fenced promotion.

:class:`FailoverController` is the whole stack, and owns no system
knowledge beyond three callables (who is primary, who succeeds them, how
to promote). It owns the monitor endpoint (placed on the backup side of
any partition), the heartbeat emitters and the detector's lifecycle, and
mints the monotonic **epoch** (fencing token) of every regime.

Note what the controller does **not** do: it never crashes the old
primary. It cannot — under the very partition that caused the
conviction, the old primary is unreachable, possibly alive, possibly
still acking writes. The epoch token is the only defence that works
from the new primary's side alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.failover.detector import FailureDetector
from repro.failover.heartbeat import HeartbeatEmitter
from repro.net.network import Network
from repro.net.rpc import Endpoint


class FailoverController:
    """Promotes the successor when the detector convicts the primary."""

    def __init__(
        self,
        network: Network,
        detector: FailureDetector,
        monitor: str,
        *,
        primary_of: Callable[[], str],
        successor_of: Callable[[str], str],
        promote: Callable[[str, int], None],
        name: str = "failover",
    ) -> None:
        self.sim = network.sim
        self.detector = detector
        self.primary_of = primary_of
        self.successor_of = successor_of
        self.promote = promote
        self.name = name
        self.epoch = 0
        self.takeovers = 0
        self.monitor = Endpoint(network, monitor)
        self.monitor.register("HEARTBEAT", self._handle_heartbeat)
        self._emitters: Dict[str, HeartbeatEmitter] = {}
        detector.on_convict(self._handle_conviction)

    def grant(self, holder: str) -> int:
        """Open a regime for ``holder``: the next epoch. Even a re-grant
        to the same holder bumps it."""
        self.epoch += 1
        self.sim.metrics.inc("failover.leases_granted")
        self.sim.trace.emit(self.name, "grant", holder=holder, epoch=self.epoch)
        return self.epoch

    def heartbeat_from(self, endpoint: Endpoint) -> None:
        """Have ``endpoint``'s node heartbeat to the monitor until
        :meth:`stop` (one emitter per node)."""
        if endpoint.name not in self._emitters:
            emitter = HeartbeatEmitter(endpoint, self.monitor.name)
            self._emitters[endpoint.name] = emitter
            emitter.start()

    def start(self, poll_interval: float) -> None:
        self.monitor.start()
        self.detector.start(poll_interval)

    def stop(self) -> None:
        for emitter in self._emitters.values():
            emitter.stop()
        self.detector.stop()
        self.monitor.stop("stopped")

    def _handle_heartbeat(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        self.detector.heartbeat(msg.payload["node"])
        return {}

    def _handle_conviction(self, node: str, _at: float) -> None:
        if node != self.primary_of():
            # Convicting a non-primary changes membership, not leadership.
            self.sim.metrics.inc("failover.nonprimary_convictions")
            return
        new_primary = self.successor_of(node)
        epoch = self.grant(new_primary)
        self.takeovers += 1
        self.sim.metrics.inc("failover.auto_takeovers")
        # Recovery time as clients experienced it: the primary's silence
        # from its last heartbeat to this promotion. The loss window in
        # txns/records is accounted inside the promote hook (take_over).
        self.sim.metrics.observe(
            "failover.takeover.recovery_time_s", self.detector._gap(node)
        )
        self.sim.trace.emit(
            self.name, "auto_takeover",
            convicted=node, new_primary=new_primary, epoch=epoch,
        )
        self.promote(new_primary, epoch)
