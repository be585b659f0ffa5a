"""Automatic takeover: heartbeats → conviction → epoch → fenced promotion.

:class:`FailoverController` is the whole stack, and owns no system
knowledge beyond three callables (who is primary, who succeeds them, how
to promote). It owns the monitor endpoint (placed on the backup side of
any partition), on which the detector's poll loop runs, starts each
watched node's :func:`heartbeats` on that node's endpoint, and mints the
monotonic **epoch** (fencing token) of every regime. Nothing consults
liveness truth: a partitioned node's heartbeats are dropped by the
network, a crashed node's endpoint ended them — either way the monitor
just stops hearing from it, the §2 ambiguity the detector acts on.

Note what the controller does **not** do: it never crashes the old
primary. It cannot — under the very partition that caused the
conviction, the old primary is unreachable, possibly alive, possibly
still acking writes. The epoch token is the only defence that works
from the new primary's side alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator

from repro.failover.detector import FailureDetector
from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.sim.events import Timeout

#: Seconds between two heartbeats.
HEARTBEAT_INTERVAL = 0.25


def heartbeats(endpoint: Endpoint, monitor: str) -> Generator[Any, Any, None]:
    """A node's loop: cast ``HEARTBEAT {node, seq}`` to ``monitor``
    every :data:`HEARTBEAT_INTERVAL`."""
    seq = 0
    while True:
        yield Timeout(HEARTBEAT_INTERVAL)
        seq += 1
        endpoint.cast(monitor, "HEARTBEAT", {"node": endpoint.name, "seq": seq})
        endpoint.sim.metrics.inc("failover.heartbeats_sent")


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
        self._heartbeating: Dict[str, Endpoint] = {}
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
        :meth:`stop` (one loop per node, on its endpoint)."""
        if endpoint.name not in self._heartbeating:
            self._heartbeating[endpoint.name] = endpoint
            endpoint.spawn(
                "heartbeat", lambda: heartbeats(endpoint, self.monitor.name)
            )

    def start(self, poll_interval: float) -> None:
        self.monitor.start()
        self.monitor.spawn(
            "poll", lambda: self.detector.poll_loop(poll_interval)
        )

    def stop(self) -> None:
        """End the heartbeats (of nodes that may well be alive) and the
        monitor, so the event heap can drain."""
        for endpoint in self._heartbeating.values():
            endpoint.end("heartbeat", "stopped")
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
