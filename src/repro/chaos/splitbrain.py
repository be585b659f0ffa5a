"""The split-brain scenario: partition the primary without killing it.

The backup of §2–3 "cannot distinguish a slow primary from a dead one".
This scenario manufactures exactly that ambiguity: the serving site is
partitioned away from the backup, the client side, and the failure
detector's monitor — but it stays *alive*, committing writes for the
clients still bound to it. The detector convicts, the controller
promotes the backup, and now there are two sites that each believe they
are primary.

What happens next is the policy under test:

- ``policy="fenced"`` — the takeover minted a fresh epoch and armed the
  new primary with it. When the partition heals and the deposed
  primary's shipper finally lands its batch, the batch bounces off the
  fence (``logship.stale_epoch_rejected``), the old primary learns it is
  deposed, and its clients get :class:`~repro.errors.StaleEpochError`
  instead of silent acks. Nothing acked at the new primary is ever
  overwritten.
- ``policy="unfenced"`` — same conviction, same promotion, no fence.
  The healed shipper replays the deposed regime's tail straight into the
  new primary, clobbering post-takeover writes with older data: the
  **lost updates** the no-lost-update invariant latches.

Either way the conviction itself was *wrong* — the primary was alive all
along — and the detector records the contradiction when the first
post-heal heartbeat arrives (``failover.false_convictions``). Fencing
does not make the guess right; it makes the wrong guess safe.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import Scenario, pacing
from repro.chaos.invariants import InvariantMonitor
from repro.errors import StaleEpochError, TimeoutError_
from repro.failover import FixedTimeoutDetector
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import FixedLatency
from repro.net.network import NetFault
from repro.sim.scheduler import Simulator


class DeposedPrimaryDrama:
    """The deposed-primary half of the story, shared with the game day
    (which stages it under a WAN cut): a writer bound to the old primary
    and the two invariants that judge what its writes did. The host
    scenario supplies ``metrics`` (its counter prefix), ``num_keys``,
    ``write_interval`` and ``horizon``, and calls :meth:`_stage` from
    ``build`` once the system exists."""

    metrics: str
    #: Post-takeover acks found overwritten at quiesce (0 until a run).
    lost_updates = 0

    def _stage(self, system: LogShippingSystem) -> None:
        self._system = system
        #: key -> last value acked by the *current regime* after takeover.
        self._post_acks: Dict[str, str] = {}
        self._last_epoch = system.epoch
        self._writer_seq = itertools.count(1)
        self.lost_updates = 0

    def _key(self, seq: int) -> str:
        return f"k{seq % self.num_keys}"

    def _stale_writer(self) -> Generator[Any, Any, None]:
        """A client bound to east — it keeps writing there through the
        partition and past the takeover, because nobody told it. Under
        fencing it eventually gets :class:`StaleEpochError` and fails
        over to the serving site; without fencing it is never told at
        all."""
        sim = self._sim
        system = self._system
        rng = sim.rng.stream(f"{self.metrics}.stale")
        deposed = False
        for pause in pacing(sim, rng, self.write_interval, 0.5, self.horizon):
            yield pause
            seq = next(self._writer_seq)
            key, value = self._key(seq), f"s{seq}"
            if deposed:
                yield from system.submit({key: value})
                if system.failover_time is not None:
                    self._post_acks[key] = value
                continue
            try:
                yield from system.submit_to("east", {key: value})
            except StaleEpochError:
                deposed = True
                sim.metrics.inc(f"{self.metrics}.stale_rejected")
                continue
            except TimeoutError_:
                continue
            if system.failover_time is not None:
                # East acked a write after it was deposed — the client
                # walks away believing it committed.
                sim.metrics.inc(f"{self.metrics}.stale_acks")

    def _check_epoch_monotonic(self) -> Optional[str]:
        """Fencing tokens totally order regimes: the system epoch never
        moves backwards."""
        epoch = self._system.epoch
        if epoch < self._last_epoch:
            return f"epoch went backwards: {self._last_epoch} -> {epoch}"
        self._last_epoch = epoch
        return None

    def _check_no_lost_update(self) -> Optional[str]:
        """Every write acked by the post-takeover regime must still hold
        its value at the serving primary once everything settles. A
        deposed primary's resurrected tail overwriting one is the §5.1
        lost update this scenario exists to catch."""
        state = self._system.primary.state
        lost = [
            (key, value, state.get(key))
            for key, value in sorted(self._post_acks.items())
            if state.get(key) != value
        ]
        if lost:
            self.lost_updates = len(lost)
            self._sim.metrics.inc(f"{self.metrics}.lost_updates", len(lost))
            key, value, found = lost[0]
            return (
                f"{len(lost)} acked writes lost (e.g. {key}={value!r} "
                f"overwritten by {found!r})"
            )
        return None


class SplitBrainScenario(DeposedPrimaryDrama, Scenario):
    """Fenced vs unfenced automatic takeover under a primary partition."""

    name = "split-brain"
    policies = ("fenced", "unfenced")
    metrics = "chaos.splitbrain"

    horizon = 30.0
    partition_end = 16.0
    write_interval = 0.4
    num_keys = 8
    poll_interval = 0.1
    ship_interval = 0.05
    cadence = 1.0
    drain = 8.0

    def __init__(
        self,
        policy: str = "fenced",
        partition_start: Optional[float] = 6.0,
        detect_timeout: float = 1.0,
        heartbeat_loss: float = 0.0,
    ) -> None:
        self.choose_policy(policy)
        self.partition_start = partition_start
        self.detect_timeout = detect_timeout
        self.heartbeat_loss = heartbeat_loss
        # Filled in by run(); read by E14's serial sweeps.
        self.detection_latency: Optional[float] = None
        self.false_takeover = False

    def spec_defaults(self) -> Dict[str, Any]:
        """Sweep bounds: mild extra link faults on top of the intrinsic
        partition (which *is* the story — no sampled crashes or
        partitions, so shrinking converges on the scripted ambiguity)."""
        return dict(
            nodes=("east", "west"),
            max_crashes=0, max_partitions=0, max_link_faults=1,
            min_episode=1.0, max_episode=4.0, fault_loss=0.1,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        system = LogShippingSystem(
            mode=ShipMode.ASYNC,
            ship_interval=self.ship_interval,
            wan_latency=FixedLatency(0.01),
            sim=sim,
        )
        self._failover = system.start_failover(
            fenced=(self.policy == "fenced"),
            detector=FixedTimeoutDetector(
                sim, [system.serving], timeout=self.detect_timeout
            ),
            poll_interval=self.poll_interval,
        )
        self._stage(system)

        if self.heartbeat_loss > 0.0:
            # The tradeoff sweep's knob: heartbeats (and only traffic from
            # the primary to the monitor) get lossy, so a twitchy detector
            # convicts a perfectly healthy primary.
            system.network.inject_fault(NetFault(
                loss_probability=self.heartbeat_loss,
                src="east", dst="failover.monitor",
            ))

        if self.partition_start is not None:
            sim.schedule_at(self.partition_start, self._cut, system)
            sim.schedule_at(self.partition_end, system.network.heal)
        return ChaosTargets(sim, network=system.network)

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register("epoch-monotonic", self._check_epoch_monotonic)
        monitor.register("no-lost-update", self._check_no_lost_update,
                         when="quiesce")

    def drive(self, sim: Simulator) -> None:
        sim.spawn(self._informed_writer(), name="chaos.splitbrain.informed")
        sim.spawn(self._stale_writer(), name="chaos.splitbrain.stale")

    def quiesce(self, sim: Simulator) -> None:
        sim.run(until=self.horizon + self.drain)

    def finish(self, sim: Simulator) -> None:
        self._failover.stop()
        convicted_at = self._failover.detector.conviction_time("east")
        if convicted_at is not None and self.partition_start is not None:
            self.detection_latency = convicted_at - self.partition_start
        self.false_takeover = (
            convicted_at is not None and self.partition_start is None
        )

    # ------------------------------------------------------------------
    # The intrinsic ambiguity

    @staticmethod
    def _cut(system: LogShippingSystem) -> None:
        """East alone on one side; backup, client, and monitor on the
        other. East is NOT crashed — that is the whole point."""
        system.network.partition([
            {"east"},
            {"west", "lsclient", "failover.monitor"},
        ])

    # ------------------------------------------------------------------
    # Writers

    def _informed_writer(self) -> Generator[Any, Any, None]:
        """A client that always reaches the *currently serving* site (it
        learns about takeovers instantly — the best case). Stops at the
        heal so its last acked values are what quiesce must still find."""
        sim = self._sim
        system = self._system
        rng = sim.rng.stream("chaos.splitbrain.informed")
        stop_at = (
            self.partition_end if self.partition_start is not None
            else self.horizon
        )
        for pause in pacing(sim, rng, self.write_interval, 0.5, stop_at):
            yield pause
            seq = next(self._writer_seq)
            key, value = self._key(seq), f"v{seq}"
            yield from system.submit({key: value})
            sim.metrics.inc("chaos.splitbrain.informed_acks")
            if system.failover_time is not None:
                self._post_acks[key] = value
