"""The geo-scale game day: every fault engine at once, across 3 DCs.

Everything before this scenario exercised one failure mode at a time on
one flat network. The game day is the paper's world at production shape:
a hundred-plus processes spread over three datacenters on one
:class:`~repro.net.topology.TopologyNetwork` — the log-shipping pair
(east in ``dc-east``, west in ``dc-west``) and a 96-node Dynamo ring
striped across all three sites — while a scheduled compound plan lands
the fault engines *together*:

- a **WAN cut** between ``dc-east`` and ``dc-west`` (a
  :class:`~repro.chaos.plan.WanCutEpisode` lowered onto site-pair fault
  overlays), which manufactures the split-brain ambiguity: east is alive
  but unreachable, the detector convicts, west takes over;
- a fabric-wide **link fault** (loss) that turns the quorum traffic into
  a retry storm for the duration;
- a **slow disk** on the east site, so the deposed primary is degraded
  as well as isolated.

The sweep axes are the failover guesses-and-apologies knobs: failure
detector (``fixed`` timeout vs ``phi`` accrual) × fencing policy
(``fenced`` vs ``unfenced``). The full invariant suite watches every
run: epoch monotonicity and no-lost-update on the log-ship pair, no
acked write lost and reconvergence on the ring, and escrow conservation
on the account the writers debit. Fenced configurations must come out
clean; the unfenced ablation loses the post-takeover acks when the
healed east ships its stale tail — the §5.1 lost update, at WAN scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import AckedWrites, Scenario, pacing
from repro.chaos.invariants import InvariantMonitor, escrow_non_negative
from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    DiskFaultEpisode,
    Episode,
    LinkFaultEpisode,
    WanCutEpisode,
)
from repro.chaos.splitbrain import DeposedPrimaryDrama
from repro.core.escrow import EscrowAccount
from repro.dynamo.cluster import DynamoCluster
from repro.errors import (
    CrashedError,
    SimulationError,
    StaleEpochError,
    TimeoutError_,
)
from repro.failover import FixedTimeoutDetector, PhiAccrualDetector
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import ExponentialLatency, FixedLatency
from repro.net.network import LinkConfig
from repro.net.topology import Site, Topology, TopologyNetwork, WanLink
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class GameDaySpec:
    """The game day's plan source: a scripted compound-fault timeline
    that every seed gets, plus a :class:`ChaosSpec` that samples mild
    extra chaos (link faults, a second sampled WAN cut) per seed.
    Frozen and field-picklable, so multiprocessing sweeps carry it to
    workers and sample bit-identically to the parent."""

    compound: Tuple[Episode, ...]
    base: ChaosSpec

    def sample(self, seed: int) -> ChaosPlan:
        extra = self.base.sample(seed)
        return ChaosPlan(self.compound + extra.episodes)


class GameDayScenario(DeposedPrimaryDrama, Scenario):
    """Detector × fencing policy under the compound multi-DC fault."""

    name = "game-day"
    policies = ("fenced", "unfenced")
    metrics = "chaos.gameday"

    SITES = ("dc-east", "dc-west", "dc-south")

    horizon = 30.0
    cut_start = 8.0
    cut_end = 16.0
    write_interval = 0.4
    num_keys = 8
    put_interval = 0.2
    detect_timeout = 1.0
    ship_interval = 0.05
    cadence = 1.0
    drain = 8.0
    storm_loss = 0.15
    disk_slow_factor = 4.0
    lan_latency = 0.0005
    wan_floor = 0.02
    wan_jitter = 0.005
    wan_bandwidth = 5000.0
    escrow_initial = 500.0
    repair_rounds = 4

    def __init__(
        self,
        policy: str = "fenced",
        detector: str = "phi",
        nodes_per_site: int = 32,
    ) -> None:
        self.choose_policy(policy)
        if detector not in ("phi", "fixed"):
            raise SimulationError(f"unknown game-day detector {detector!r}")
        if nodes_per_site < 2:
            raise SimulationError("game day needs >= 2 nodes per site")
        self.detector = detector
        self.nodes_per_site = nodes_per_site
        # Filled in by run(); read by E17 and the tests.
        self.endpoint_count = 0
        self.detection_latency: Optional[float] = None
        self.lost_acked_writes = 0
        self.converged_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Layout

    @property
    def num_nodes(self) -> int:
        return self.nodes_per_site * len(self.SITES)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def site_of_node(self, index: int) -> str:
        return self.SITES[index % len(self.SITES)]

    def compound_episodes(self) -> Tuple[Episode, ...]:
        """The scripted timeline every seed gets: WAN cut + retry-storm
        loss + a slow disk on the cut-off site, all overlapping."""
        return (
            WanCutEpisode(self.cut_start, self.cut_end, "dc-east", "dc-west"),
            LinkFaultEpisode(
                self.cut_start, self.cut_end, loss=self.storm_loss
            ),
            DiskFaultEpisode(
                "east.disk",
                at=self.cut_start,
                repair_at=self.cut_end,
                slow_factor=self.disk_slow_factor,
            ),
        )

    def spec_defaults(self) -> Dict[str, Any]:
        return dict(
            nodes=self.node_names() + ("east", "west"),
            max_crashes=0,
            max_partitions=0,
            max_link_faults=1,
            min_episode=1.0,
            max_episode=4.0,
            fault_loss=0.05,
            fault_duplicate=0.05,
            site_pairs=(("dc-east", "dc-south"), ("dc-west", "dc-south")),
            max_wan_cuts=1,
        )

    def spec(self, **overrides: Any) -> GameDaySpec:
        """Compound timeline + sampled extras. The extras stay mild (no
        crashes, no flat partitions: store durability and at least one
        reachable quorum path are what keep the invariants sound) and may
        include a sampled WAN cut on the pairs the scripted cut spares."""
        return GameDaySpec(
            compound=self.compound_episodes(), base=super().spec(**overrides)
        )

    def _build_topology(self) -> Topology:
        lan = FixedLatency(self.lan_latency)
        wan = WanLink(
            ExponentialLatency(floor=self.wan_floor, mean_extra=self.wan_jitter),
            bandwidth=self.wan_bandwidth,
        )
        return Topology(
            [Site(name, lan=lan) for name in self.SITES], default_wan=wan
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        topology = self._build_topology()
        network = TopologyNetwork(
            sim,
            topology,
            default_link=LinkConfig(latency=FixedLatency(self.lan_latency)),
        )

        cluster = DynamoCluster(
            num_nodes=self.num_nodes, sim=sim, network=network
        )
        self._cluster = cluster
        for index, name in enumerate(self.node_names()):
            topology.place(name, self.site_of_node(index))

        system = LogShippingSystem(
            mode=ShipMode.ASYNC,
            ship_interval=self.ship_interval,
            sim=sim,
            network=network,
        )
        topology.place("east", "dc-east")
        topology.place_all(("west", "lsclient"), "dc-west")

        topology.place("failover.monitor", "dc-west")
        self._failover = system.start_failover(
            fenced=(self.policy == "fenced"),
            detector=self._make_detector(sim, system),
        )
        self._stage(system)

        # Quorum writers live in the third DC: the scripted cut severs
        # dc-east<->dc-west only, so every key keeps a reachable quorum
        # path and "no acked write lost" stays a claim about the system,
        # not about the plan.
        self._writers = [cluster.client(f"gd-writer{i}") for i in (1, 2)]
        topology.place_all((w.name for w in self._writers), "dc-south")
        self._writes = AckedWrites(
            cluster, "chaos.gameday", lost="missing from the ring",
            unconverged="owners never agreed after repair rounds",
        )

        escrow = EscrowAccount(sim, self.escrow_initial, name="gameday.escrow")
        self._escrow = escrow
        self._escrow_committed = 0.0

        return ChaosTargets(
            sim,
            network=network,
            disks={
                "east.disk": system.sites["east"].disk,
                "west.disk": system.sites["west"].disk,
            },
        )

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register("epoch-monotonic", self._check_epoch_monotonic)
        monitor.register("escrow-conserved", self._check_escrow_conserved)
        monitor.register("escrow-bounds", escrow_non_negative(self._escrow))
        monitor.register("no-lost-update", self._check_no_lost_update,
                         when="quiesce")
        self._writes.invariants(monitor)

    def drive(self, sim: Simulator) -> None:
        sim.spawn(self._informed_writer(), name="chaos.gameday.informed")
        sim.spawn(self._stale_writer(), name="chaos.gameday.stale")
        for writer in self._writers:
            # Unique-key puts from the third DC, keyed per writer.
            self._writes.spawn_writer(
                writer, f"chaos.gameday.{writer.name}",
                self.put_interval, self.horizon, key_prefix=f"{writer.name}-",
            )
        self.endpoint_count = self._cluster.network.endpoint_count

    def quiesce(self, sim: Simulator) -> None:
        """Repair the ring until every acked key's owners agree (bounded
        rounds — at this scale the budget is part of the claim)."""
        sim.run(until=self.horizon + self.drain)
        # Stop the perpetual processes (heartbeats, detector poll) so the
        # repair rounds below can drain the event heap; the shippers are
        # event-driven and go idle once the healed tails land.
        self._failover.stop()
        self._writes.repair(
            self.repair_rounds, self._cluster.run_anti_entropy_round
        )

    def finish(self, sim: Simulator) -> None:
        self.converged_at = self._writes.converged_at
        self.lost_acked_writes = len(self._writes.lost)
        if self._writes.lost:
            sim.metrics.inc(
                "chaos.gameday.lost_acked_writes", len(self._writes.lost)
            )
        convicted_at = self._failover.detector.conviction_time("east")
        self.detection_latency = (
            convicted_at - self.cut_start if convicted_at is not None else None
        )

    def _make_detector(
        self, sim: Simulator, system: LogShippingSystem
    ) -> Any:
        if self.detector == "fixed":
            return FixedTimeoutDetector(
                sim, [system.serving], timeout=self.detect_timeout
            )
        return PhiAccrualDetector(sim, [system.serving])

    # ------------------------------------------------------------------
    # Log-ship writers (the split-brain pattern, now under a WAN cut)

    def _informed_writer(self) -> Generator[Any, Any, None]:
        """Always reaches the currently serving site; every write debits
        the escrow account (reserve -> submit -> commit, abort on
        failure), so escrow conservation rides the same fault timeline.
        Stops at the heal so quiesce checks its last acked values."""
        sim = self._sim
        system = self._system
        escrow = self._escrow
        rng = sim.rng.stream("chaos.gameday.informed")
        for pause in pacing(sim, rng, self.write_interval, 0.5, self.cut_end):
            yield pause
            seq = next(self._writer_seq)
            key, value = self._key(seq), f"v{seq}"
            txn = f"gd-esc-{seq}"
            yield from escrow.reserve(txn, -1.0)
            try:
                yield from system.submit({key: value})
            except (StaleEpochError, TimeoutError_, CrashedError):
                escrow.abort(txn)
                sim.metrics.inc("chaos.gameday.informed_failures")
                continue
            escrow.commit(txn)
            self._escrow_committed += -1.0
            sim.metrics.inc("chaos.gameday.informed_acks")
            if system.failover_time is not None:
                self._post_acks[key] = value

    # ------------------------------------------------------------------
    # Invariants

    def _check_escrow_conserved(self) -> Optional[str]:
        """The account's committed value equals the opening balance plus
        exactly the deltas the workload committed — escrow under faults
        may block or abort, never mint or lose money."""
        expected = self.escrow_initial + self._escrow_committed
        if abs(self._escrow.value - expected) > 1e-9:
            return (
                f"escrow value {self._escrow.value} != opening "
                f"{self.escrow_initial} + committed {self._escrow_committed}"
            )
        return None
