"""The log-shipping pair: shipping modes, fail-over, resurrection.

This is the §4 example plus the §5.1 aftermath:

- **async** (the deployed norm): commit acks after the local flush; a
  shipper sends the log every ``ship_interval``. A fail-over loses the
  committed-but-unshipped tail.
- **sync** (the "unacceptable delay" alternative): commit additionally
  ships through its own LSN and waits for the remote ack before the
  client hears anything. Nothing is ever lost; every commit pays the WAN.

After a fail-over, the old primary may come back with orphaned
transactions "dawdling in the belly of the failed system". The recovery
policy is a business choice: ``discard`` them (the common deployment
reality), or ``reapply`` them — which re-executes old writes after the
backup has moved on, and we count how many keys written since the
takeover get clobbered by the resurrection (the §5.1 reordering hazard).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Generator, List, Optional, Set

from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.failover import (
    FailoverController,
    FailureDetector,
    FixedTimeoutDetector,
    HeartbeatEmitter,
)
from repro.net.latency import ExponentialLatency, FixedLatency, LatencyModel
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.sim.sync import Lock
from repro.logship.replica import DatabaseReplica


class ShipMode(str, enum.Enum):
    ASYNC = "async"
    SYNC = "sync"


#: Shipping a log batch over the WAN: generous timer, two retries —
#: the historic ``timeout=5.0, retries=2`` discipline. The ship loop is
#: serialized, so a slow batch never stacks concurrent attempts.
SHIP_POLICY = RetryPolicy(max_attempts=3, timeout=5.0)


class LogShippingSystem:
    """Two symmetric sites; one serves, the other replays."""

    #: Link latency of the private flat fabric, east<->west aside.
    lan_latency = 0.0005

    def __init__(
        self,
        mode: ShipMode = ShipMode.ASYNC,
        ship_interval: float = 0.05,
        wan_latency: Optional[LatencyModel] = None,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        snapshot_cadence: Optional[float] = None,
        network: Optional[Network] = None,
    ) -> None:
        self.mode = ShipMode(mode)
        self.ship_interval = ship_interval
        self.snapshot_cadence = snapshot_cadence
        self.sim = sim or Simulator(seed=seed)
        if network is not None and network.sim is not self.sim:
            raise SimulationError("network belongs to a different simulator")
        external_network = network is not None
        self.network = network or Network(
            self.sim, default_link=LinkConfig(latency=FixedLatency(self.lan_latency))
        )
        self.sites = {
            name: DatabaseReplica(self.sim, self.network, name)
            for name in ("east", "west")
        }
        if not external_network:
            # On the private flat fabric the east<->west hop is the WAN.
            # A caller-supplied network (a multi-site TopologyNetwork)
            # already routes that hop by site placement.
            wan = wan_latency or ExponentialLatency(floor=0.02, mean_extra=0.005)
            self.network.set_link("east", "west", LinkConfig(latency=wan))
        self.serving = "east"
        self.epoch = 0
        self.failover_time: Optional[float] = None
        self._ship_locks = {
            name: Lock(self.sim, name=f"ship.{name}") for name in self.sites
        }
        self._shipper_procs: Dict[str, Any] = {name: None for name in self.sites}
        self._work_available = {
            name: self.sim.event(f"logship.work.{name}") for name in self.sites
        }
        self._peer_back = {
            name: self.sim.event(f"logship.peer_back.{name}") for name in self.sites
        }
        self._txn_ids = itertools.count(1)
        self.client = Endpoint(self.network, "lsclient")
        self.client.start()
        if snapshot_cadence is not None:
            for replica in self.sites.values():
                replica.enable_snapshots(snapshot_cadence)
                replica.snapshotter.start()
        if self.mode is ShipMode.ASYNC:
            self._start_shipper()

    # ------------------------------------------------------------------
    # Roles

    @property
    def primary(self) -> DatabaseReplica:
        return self.sites[self.serving]

    @property
    def backup(self) -> DatabaseReplica:
        return self.sites[self._peer(self.serving)]

    @staticmethod
    def _peer(name: str) -> str:
        return "west" if name == "east" else "east"

    def _site(self, name: str) -> DatabaseReplica:
        if name not in self.sites:
            raise SimulationError(
                f"unknown site {name!r} (have {sorted(self.sites)})"
            )
        return self.sites[name]

    # ------------------------------------------------------------------
    # Client operations

    def submit(self, writes: Dict[Any, Any]) -> Generator[Any, Any, str]:
        """Run one transaction at the serving site; returns its id once the
        client would consider it committed."""
        result = yield from self.submit_to(self.serving, writes)
        return result

    def submit_to(self, site: str, writes: Dict[Any, Any]) -> Generator[Any, Any, str]:
        """Run one transaction at a *specific* site. This is how a client
        that still believes in a deposed primary behaves: under fencing
        the commit raises :class:`StaleEpochError` once the site learns it
        lost; without fencing the deposed site happily keeps acking."""
        txn_id = f"txn-{next(self._txn_ids)}"
        start = self.sim.now
        replica = self._site(site)
        yield from replica.commit_transaction(txn_id, writes)
        if self.mode is ShipMode.SYNC:
            shipped = yield from self._ship_once(site)
            if shipped is None:
                # SYNC's promise is "nothing acked is unshipped" — when the
                # peer is unreachable (or we are fenced) we just broke it.
                # Historically this degradation was silent; now it counts.
                self.sim.metrics.inc("logship.sync_degraded")
                self.sim.trace.emit("logship", "sync_degraded", site=site)
        else:
            self._kick_shipper(site)
        self.sim.metrics.observe("logship.commit_latency", self.sim.now - start)
        self.sim.metrics.inc("logship.acked_commits")
        return txn_id

    def read(self, key: Any) -> Generator[Any, Any, Any]:
        """Client read against the serving site (over the fabric)."""
        result = yield from self.client.call(self.serving, "GET", {"key": key})
        return result["value"]

    # ------------------------------------------------------------------
    # Shipping

    def _start_shipper(self, site: Optional[str] = None) -> None:
        site = site or self.serving
        proc = self._shipper_procs.get(site)
        if proc is not None and proc.alive:
            return
        self._shipper_procs[site] = self.sim.spawn(
            self._ship_loop(site), name=f"shipper:{site}"
        )

    def _kick_shipper(self, site: Optional[str] = None) -> None:
        """Tell a site's shipper there is unshipped work (event-driven so
        an idle system's event heap drains)."""
        site = site or self.serving
        if not self._work_available[site].triggered:
            self._work_available[site].trigger(None)

    def _ship_loop(self, site: str) -> Generator[Any, Any, None]:
        replica = self.sites[site]
        while True:
            if replica.deposed:
                # Fenced out: a newer regime owns the pair. Stop shipping.
                return
            if not self.network.is_attached(self._peer(site)):
                # The peer is down: nothing to do until it returns.
                self._peer_back[site] = self.sim.event(f"logship.peer_back.{site}")
                yield self._peer_back[site]
            if not replica.unshipped_records():
                self._work_available[site] = self.sim.event(f"logship.work.{site}")
                yield self._work_available[site]
            yield Timeout(self.ship_interval)
            try:
                yield from self._ship_once(site)
            except CrashedError:
                return
            except (TimeoutError_, RpcError):
                # Peer attached but unreachable (a partition, not a crash):
                # keep the records and keep trying.
                self.sim.metrics.inc("logship.ship_failures")

    def _ship_once(self, site: Optional[str] = None) -> Generator[Any, Any, Optional[int]]:
        """Ship the durable-but-unshipped tail to the peer and advance the
        cursor on ack. Serialized per site: one batch in flight.

        Returns the record count shipped, ``0`` when there was nothing to
        ship, or ``None`` when shipping was *degraded*: records pending
        but the peer detached, or the batch bounced off a fence.
        """
        site = site or self.serving
        yield self._ship_locks[site].acquire()
        try:
            replica = self.sites[site]
            records = replica.unshipped_records()
            if not records:
                return 0
            peer = self._peer(site)
            if not self.network.is_attached(peer):
                return None
            reply = yield from replica.endpoint.call(
                peer,
                "SHIP",
                {"records": records, "epoch": replica.epoch},
                policy=SHIP_POLICY,
            )
            if reply.get("fenced"):
                # The peer belongs to a newer regime; our records are from
                # a deposed one and were not applied.
                replica.fence(reply["epoch"])
                self.sim.metrics.inc("logship.stale_epoch_rejected", len(records))
                self.sim.trace.emit(
                    "logship", "ship.fenced",
                    site=site, epoch=replica.epoch,
                    fenced_below=reply["epoch"], records=len(records),
                )
                return None
            replica.shipped_lsn = records[-1]["lsn"]
            self.sim.metrics.inc("logship.shipped_records", len(records))
            return len(records)
        finally:
            self._ship_locks[site].release()

    # ------------------------------------------------------------------
    # Fail-over and resurrection

    def adopt_epoch(self, epoch: int) -> None:
        """Stamp the serving site's current regime with a fencing token
        (called once when a failover stack installs itself)."""
        self.epoch = max(self.epoch, epoch)
        self.primary.epoch = max(self.primary.epoch, epoch)

    def start_failover(
        self,
        *,
        fenced: bool = True,
        detector: Optional[FailureDetector] = None,
        poll_interval: Optional[float] = None,
    ) -> FailoverController:
        """Start automatic failover: the serving site (epoch 1)
        heartbeats to ``failover.monitor``; a conviction calls
        :meth:`take_over` under a fresh epoch. ``fenced=False`` is the
        E14 ablation: the new regime takes no epoch protection, so a
        deposed-but-alive primary's resurrection ships straight in."""
        interval = HeartbeatEmitter.interval
        controller = FailoverController(
            self.network,
            detector or FixedTimeoutDetector(
                self.sim, [self.serving], timeout=4.0 * interval
            ),
            "failover.monitor",
            primary_of=lambda: self.serving,
            successor_of=self._peer,
            promote=lambda _node, epoch: self.take_over(fenced=fenced, epoch=epoch),
        )
        self.adopt_epoch(controller.grant(self.serving))
        controller.heartbeat_from(self.primary.endpoint)
        controller.start(interval / 2.0 if poll_interval is None else poll_interval)
        return controller

    def fail_over(self) -> Dict[str, Any]:
        """God-mode fail-over, kept for experiments that *want* omniscient
        failure injection: crash the serving site (a forced conviction
        that happens to be correct by construction), then promote."""
        old_name = self.serving
        proc = self._shipper_procs.get(old_name)
        if proc is not None:
            proc.interrupt("failover")
            self._shipper_procs[old_name] = None
        self.sites[old_name].crash()
        return self.take_over(fenced=True)

    def take_over(
        self,
        *,
        fenced: bool = True,
        epoch: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Promote the backup — WITHOUT touching the old primary.

        This is what an automatic failover can actually do: the conviction
        behind it is a guess, the old primary may be alive behind a
        partition, and nobody can reach over and crash it. ``fenced=True``
        arms the new primary with the regime's epoch so the old one's
        traffic bounces; ``fenced=False`` is the §5.1 hazard on purpose.

        Returns ``in_doubt`` accounting: acked transactions the new
        primary has never seen. With a real crash they are lost; with a
        slow-not-dead primary they are merely locked up until recovery.
        """
        old_name = self.serving
        old = self.sites[old_name]
        new_name = self._peer(old_name)
        new = self.sites[new_name]
        crashed = old.crashed
        self.serving = new_name
        self.failover_time = self.sim.now
        new_epoch = (
            epoch if epoch is not None
            else max(self.epoch, old.epoch, new.epoch) + 1
        )
        self.epoch = new_epoch
        new.epoch = new_epoch
        if fenced:
            new.fence(new_epoch)
            if not crashed and self.network.is_attached(old_name):
                # Best-effort courtesy: tell the deposed side it lost. The
                # cast is dropped under the very partition that caused the
                # conviction — apply-side rejection is the real guarantee.
                new.endpoint.cast(old_name, "FENCE", {"epoch": new_epoch})
        in_doubt = sorted(old.committed_local - new.applied_txns)
        self.sim.metrics.inc("logship.takeovers")
        if crashed:
            self.sim.metrics.inc("logship.lost_commits", len(in_doubt))
        else:
            self.sim.metrics.inc("logship.in_doubt_commits", len(in_doubt))
        # The loss window, in both currencies: acked txns the survivor
        # never saw, and how far its replay cursor trails the old
        # primary's durability horizon.
        self.sim.metrics.observe("logship.takeover.loss_window_txns", len(in_doubt))
        self.sim.metrics.observe(
            "logship.takeover.loss_window_records",
            max(0, old.wal.durable_lsn - new.applied_peer_lsn),
        )
        self.sim.trace.emit(
            "logship", "takeover", new_primary=self.serving, lost=len(in_doubt),
        )
        if self.mode is ShipMode.ASYNC:
            self._start_shipper(new_name)
        return {
            "lost_txns": in_doubt,
            "new_primary": self.serving,
            "epoch": new_epoch,
        }

    def rejoin(self, site: Optional[str] = None) -> Generator[Any, Any, Dict[str, Any]]:
        """Cold-restart a crashed site from snapshot + WAL tail, then have
        the serving peer re-ship only the records past the snapshot's
        applied-peer cursor (a CATCHUP rewind + the regular ship loop).

        This is the tail-recovery rejoin the §3 checkpoint arc promises:
        without a snapshot the site replays its whole log and the peer
        re-ships from LSN 0; with one, both costs shrink to the tail.
        """
        site = site or self._peer(self.serving)
        replica = self._site(site)
        if site == self.serving:
            raise SimulationError(f"cannot rejoin the serving site {site!r}")
        start = self.sim.now
        local = yield from replica.cold_restart()
        if not self._peer_back[self.serving].triggered:
            self._peer_back[self.serving].trigger(None)
        reply = yield from self.client.call(
            self.serving, "CATCHUP", {"from_lsn": local["applied_peer_lsn"]}
        )
        self._kick_shipper(self.serving)
        duration = self.sim.now - start
        self.sim.metrics.observe("logship.rejoin.time_s", duration)
        self.sim.metrics.observe(
            "logship.rejoin.reship_from", reply["shipped_lsn"]
        )
        self.sim.trace.emit(
            "logship", "rejoin", site=site,
            snapshot_lsn=local["snapshot_lsn"],
            replayed=local["replayed_records"],
            reship_from=reply["shipped_lsn"],
            duration=duration,
        )
        return {**local, "reship_from": reply["shipped_lsn"], "rejoin_time": duration}

    def recover_orphans(self, policy: str = "discard") -> Dict[str, Any]:
        """Bring the crashed site back and deal with its orphaned tail.

        ``policy="discard"`` — count the orphans and drop them (what most
        deployments do, §4.2). ``policy="reapply"`` — replay the orphaned
        transactions into the new primary; counts ``clobbered_keys``:
        keys the new primary wrote *after* the takeover whose values the
        resurrection just overwrote with older data.
        """
        if policy not in ("discard", "reapply"):
            raise SimulationError(f"unknown recovery policy {policy!r}")
        dead = self.backup  # after fail_over, the crashed site is the peer
        dead.restart()
        if not self._peer_back[self.serving].triggered:
            self._peer_back[self.serving].trigger(None)
        self._kick_shipper(self.serving)
        serving = self.primary
        orphan_txns = sorted(dead.committed_local - serving.applied_txns)
        clobbered: List[Any] = []
        if policy == "reapply":
            records = [
                {"lsn": r.lsn, "kind": r.kind, "txn": r.txn_id, **r.payload}
                for r in dead.wal.durable_records()
                if r.txn_id in set(orphan_txns)
            ]
            cutoff = self.failover_time or 0.0
            for record in records:
                if (
                    record["kind"] == "WRITE"
                    and serving.last_write_time.get(record["key"], -1.0) >= cutoff
                ):
                    clobbered.append(record["key"])
            for record in records:
                serving.replay_record(record)
            self.sim.metrics.inc("logship.resurrected", len(orphan_txns))
            self.sim.metrics.inc("logship.clobbered_keys", len(clobbered))
        else:
            self.sim.metrics.inc("logship.discarded_orphans", len(orphan_txns))
        return {"orphans": orphan_txns, "clobbered_keys": clobbered}

    # ------------------------------------------------------------------

    def durable_everywhere(self) -> Set[str]:
        """Transactions applied at both sites."""
        east, west = self.sites["east"], self.sites["west"]
        return east.applied_txns & west.applied_txns
