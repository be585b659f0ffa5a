"""Rejoin chaos: rolling cold crash/restart of a fraction of the ring.

The scenario the snapshot layer exists for: Dynamo nodes whose memory
actually burns down with them. One by one, 20% of the ring cold-crashes
(store lost), stays down for a seeded outage, then rejoins — seeded from
its latest snapshot, with hinted handoff and Merkle anti-entropy closing
the diff the checkpoint missed. The sampled plan layers message chaos
(loss/duplication/delay) on top; crash scheduling stays with the
scenario itself so crashes are *rolling*: repair completes between
losses, which is what makes the invariant sound — with N=3 and W=2,
every acked write has two homes, and only one node's memory is ever in
flames at a time.

Invariants: **acked-is-durable** after quiesce (every put the writer's
recorded history shows acknowledged is held by a live node of the
converged ring), and **the ring
re-converges** — with ``time_to_converged`` measured from quiesce start.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, Tuple

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import AckedWrites, Crashable, Scenario
from repro.chaos.invariants import InvariantMonitor
from repro.dynamo.cluster import DynamoCluster
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


class RejoinScenario(Scenario):
    """Unique-key writers against a ring under rolling cold restarts."""

    name = "rejoin"
    policies = ("snapshot", "no-snapshot")
    horizon = 20.0
    put_interval = 0.15
    outage = 2.0  # mean sim-seconds a victim stays down
    snapshot_cadence = 1.0  # under the snapshot policy; the other takes none
    num_nodes = 10
    crash_fraction = 0.2

    def __init__(self, policy: str = "snapshot") -> None:
        self.choose_policy(policy)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def victim_count(self) -> int:
        return max(1, math.ceil(self.crash_fraction * self.num_nodes))

    def spec_defaults(self) -> Dict[str, Any]:
        """Message chaos only: the rolling cold-crash cycle is the
        scenario's own (seeded) schedule, so repair always completes
        between losses — sampled simultaneous crashes would make 'no
        acked write lost' unsatisfiable by design, not by bug."""
        return dict(
            nodes=self.node_names() + ("writer",),
            min_crashes=0, max_crashes=0,
            max_partitions=0,
            max_link_faults=2,
            fault_loss=0.15,
            min_episode=0.5, max_episode=0.2 * self.horizon,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        cluster = DynamoCluster(
            num_nodes=self.num_nodes, sim=sim,
            snapshot_cadence=(
                self.snapshot_cadence if self.policy == "snapshot" else None
            ),
        )
        self._cluster = cluster
        self._client = cluster.client("writer")
        self._writes = AckedWrites(cluster, "chaos.rejoin", converge=True)
        # Node targets cold-crash and spawn their own rejoin (it takes
        # disk time), so even a hand-written plan with crash episodes
        # exercises the cold path: crash loses the store, restart seeds
        # from the snapshot.
        targets = {
            name: Crashable(
                lambda _cause, n=name: cluster.cold_crash(n),
                lambda n=name: sim.spawn(
                    cluster.cold_restart(n), name=f"chaos.rejoin.restart.{n}"
                ),
            )
            for name in self.node_names()
        }
        return ChaosTargets(sim, network=cluster.network, nodes=targets)

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register("acked-is-durable", self._writes.durable, when="quiesce")
        monitor.register("ring-reconverges", self._writes.reconverged, when="quiesce")

    def drive(self, sim: Simulator) -> None:
        self._writes.spawn_writer(
            self._client, "chaos.rejoin.workload", self.put_interval, self.horizon
        )
        sim.spawn(
            self._rolling_restarts(sim, self._cluster), name="chaos.rejoin.cycle"
        )

    def quiesce(self, sim: Simulator) -> None:
        """Bring back anyone still down, then repair until every acked
        key's owners agree — timed from before the stragglers rejoin."""
        cluster = self._cluster
        sim.run()  # drain spawned rejoin processes before checking who's up
        quiesce_start = sim.now
        for name in self.node_names():
            if not cluster.alive(name):
                sim.run_process(cluster.cold_restart(name))
        self._writes.repair(
            self.num_nodes + 2, cluster.run_merkle_round, since=quiesce_start
        )

    # ------------------------------------------------------------------

    def _rolling_restarts(
        self, sim: Simulator, cluster: DynamoCluster
    ) -> Generator:
        """Cold-crash ``crash_fraction`` of the ring, one node at a time:
        crash, seeded outage, snapshot-seeded rejoin, repair rounds, next.
        """
        rng = sim.rng.stream("chaos.rejoin.cycle")
        names = list(self.node_names())
        victims = [names.pop(rng.randrange(len(names)))
                   for _ in range(self.victim_count())]
        # Space the cycle inside the horizon, leaving tail time to settle.
        yield Timeout(0.2 * self.horizon)
        for victim in victims:
            lost = cluster.cold_crash(victim)
            sim.metrics.inc("chaos.rejoin.versions_lost_at_crash", lost)
            yield Timeout(self.outage * rng.uniform(0.8, 1.2))
            result = yield from cluster.cold_restart(victim)
            sim.metrics.inc(
                "chaos.rejoin.seeded_versions", result["seeded_versions"]
            )
            # Repair before the next victim: the invariant's soundness
            # depends on at most one lost store at a time.
            yield from cluster.run_handoff_round()
            yield from cluster.run_merkle_round()
            yield Timeout(0.5)
