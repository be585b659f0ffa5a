"""Automatic takeover: conviction → lease grant → fenced promotion.

:class:`FailoverController` is the generic piece — it owns no system
knowledge beyond three callables (who is primary, who succeeds them, how
to promote). :class:`LogshipFailover` wires the whole stack onto a
:class:`~repro.logship.system.LogShippingSystem`: heartbeats cast from
the serving site's endpoint to a monitor endpoint (placed on the backup
side of any partition), a pluggable detector, and a controller whose
promotion calls ``system.take_over`` with the freshly minted epoch.

Note what the controller does **not** do: it never crashes the old
primary. It cannot — under the very partition that caused the
conviction, the old primary is unreachable, possibly alive, possibly
still acking writes. The epoch token is the only defence that works
from the new primary's side alone.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.failover.detector import FailureDetector, FixedTimeoutDetector
from repro.failover.heartbeat import HeartbeatEmitter
from repro.failover.lease import Lease, LeaseManager
from repro.net.rpc import Endpoint
from repro.sim.scheduler import Simulator


class FailoverController:
    """Promotes the successor when the detector convicts the primary."""

    def __init__(
        self,
        sim: Simulator,
        detector: FailureDetector,
        *,
        primary_of: Callable[[], str],
        successor_of: Callable[[str], str],
        promote: Callable[[str, Lease], None],
        leases: Optional[LeaseManager] = None,
        lease_duration: float = 2.0,
        name: str = "failover",
    ) -> None:
        self.sim = sim
        self.detector = detector
        self.primary_of = primary_of
        self.successor_of = successor_of
        self.promote = promote
        self.leases = leases or LeaseManager(sim)
        self.lease_duration = lease_duration
        self.name = name
        self.takeovers = 0
        detector.on_convict(self._handle_conviction)

    def _handle_conviction(self, node: str, _at: float) -> None:
        if node != self.primary_of():
            # Convicting a non-primary changes membership, not leadership.
            self.sim.metrics.inc("failover.nonprimary_convictions")
            return
        new_primary = self.successor_of(node)
        lease = self.leases.grant(new_primary, self.lease_duration)
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
            convicted=node, new_primary=new_primary, epoch=lease.epoch,
        )
        self.promote(new_primary, lease)


class LogshipFailover:
    """The full stack on a :class:`LogShippingSystem`.

    ``fenced=False`` is the E14 ablation: the controller still promotes
    automatically, but the new regime takes no epoch protection — a
    deposed-but-alive primary's resurrection ships straight into the new
    primary's state.
    """

    def __init__(
        self,
        system: Any,
        *,
        fenced: bool = True,
        heartbeat_interval: float = 0.25,
        detector: Optional[FailureDetector] = None,
        poll_interval: Optional[float] = None,
        lease_duration: float = 2.0,
        monitor_name: str = "failover.monitor",
    ) -> None:
        self.system = system
        self.sim = system.sim
        self.fenced = fenced
        self.poll_interval = poll_interval or heartbeat_interval / 2.0
        self.monitor_name = monitor_name
        self.leases = LeaseManager(self.sim)
        # Epoch 1: the incumbent's regime is a granted lease too.
        initial = self.leases.grant(system.serving, lease_duration)
        system.adopt_epoch(initial.epoch)
        self.detector = detector or FixedTimeoutDetector(
            self.sim, [system.serving], timeout=4.0 * heartbeat_interval
        )
        self.monitor = Endpoint(system.network, monitor_name)
        self.monitor.register("HEARTBEAT", self._handle_heartbeat)
        self.monitor.start()
        self.emitter = HeartbeatEmitter(
            system.primary.endpoint,
            monitor_name,
            interval=heartbeat_interval,
            epoch_of=lambda: system.primary.epoch,
        )
        self.controller = FailoverController(
            self.sim,
            self.detector,
            primary_of=lambda: system.serving,
            successor_of=system._peer,
            promote=self._promote,
            leases=self.leases,
            lease_duration=lease_duration,
        )

    def _handle_heartbeat(self, _ep: Endpoint, msg: Any) -> dict:
        self.detector.heartbeat(msg.payload["node"])
        return {}

    def _promote(self, _new_primary: str, lease: Lease) -> None:
        self.system.take_over(
            fenced=self.fenced, epoch=lease.epoch, cause="conviction"
        )

    def start(self) -> None:
        self.emitter.start()
        self.detector.start(self.poll_interval)

    def stop(self) -> None:
        self.emitter.stop()
        self.detector.stop()
        self.monitor.stop("stopped")
