"""Ring-rebalance chaos: join/leave under zipf traffic and message chaos.

The elastic ring's reason to exist — and its sharpest failure window.
While a seeded open-loop zipf GET/PUT stream and a unique-key writer
hammer the cluster, the scenario reshapes the ring on a seeded schedule:
two nodes join (each bootstrapping its gained ranges from the previous
owners via range-scoped Merkle transfer) and one original node is
decommissioned (streaming its ranges out before departing). The sampled
plan layers message chaos (loss/duplication/delay) on top; the reshape
schedule stays with the scenario so joins and leaves land *mid-traffic*,
which is the point — every hinted-handoff and intended-owner decision
must consult the current ring or an acked write strands on a topology
that no longer exists.

Invariants: **no acked write lost** (every acknowledged unique-key put
is readable somewhere in the final ring — including from the joiners,
never from the decommissioned node) and **the ring re-converges** after
quiesce, with ``time_to_converged`` measured.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Tuple

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import AckedWrites, Scenario
from repro.chaos.invariants import InvariantMonitor
from repro.dynamo.cluster import DynamoCluster
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop


class RingRebalanceScenario(Scenario):
    """Elastic-ring reshaping under zipf load and message chaos."""

    name = "ring_rebalance"
    policies = ("elastic",)
    policy = "elastic"
    horizon = 16.0
    put_interval = 0.12
    zipf_rate = 30.0
    zipf_keyspace = 5_000
    num_nodes = 8

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def spec_defaults(self) -> Dict[str, Any]:
        """Message chaos only: the join/decommission schedule is the
        scenario's own (seeded) timeline — sampled crashes on top would
        make 'no acked write lost' unsatisfiable by design when the
        leaver's replicas are simultaneously dark."""
        return dict(
            nodes=self.node_names() + ("joiner0", "joiner1", "writer", "zipf"),
            min_crashes=0, max_crashes=0,
            max_partitions=0,
            max_link_faults=2,
            fault_loss=0.15,
            min_episode=0.5, max_episode=0.2 * self.horizon,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        self._cluster = cluster
        self._writer = cluster.client("writer")
        self._zipf_client = cluster.client("zipf")
        self._writes = AckedWrites(
            cluster, "chaos.rebalance", lost="missing from the reshaped ring",
            unconverged="owners never agreed after the reshape + repair rounds",
        )
        return ChaosTargets(sim, network=cluster.network)

    def invariants(self, monitor: InvariantMonitor) -> None:
        self._writes.invariants(monitor)

    def drive(self, sim: Simulator) -> None:
        zipf_keys = ZipfKeyGenerator(
            sim.rng.stream("chaos.rebalance.zipf"),
            keyspace=self.zipf_keyspace, theta=0.99, prefix="zk",
        )
        self._writes.spawn_writer(
            self._writer, "chaos.rebalance.writer", self.put_interval, self.horizon
        )
        sim.spawn(
            zipf_open_loop(
                sim, self._zipf_client, zipf_keys, rate=self.zipf_rate,
                until=self.horizon, stream="chaos.rebalance.zipf.arrivals",
            ),
            name="chaos.rebalance.zipf",
        )
        sim.spawn(
            self._reshape(sim, self._cluster), name="chaos.rebalance.reshape"
        )

    def quiesce(self, sim: Simulator) -> None:
        """Repair until every acked key's (current!) owners agree —
        timing it."""
        sim.run()  # drain in-flight reshapes and requests
        self._writes.repair(self.num_nodes + 4, self._cluster.run_merkle_round)

    # ------------------------------------------------------------------

    def _reshape(self, sim: Simulator, cluster: DynamoCluster) -> Generator:
        """The seeded elasticity timeline: join, decommission, join —
        all mid-traffic, all while message chaos is live."""
        rng = sim.rng.stream("chaos.rebalance.reshape")
        victim = f"node{rng.randrange(self.num_nodes)}"
        schedule = [
            (0.30 * self.horizon, "join", "joiner0"),
            (0.50 * self.horizon, "decommission", victim),
            (0.65 * self.horizon, "join", "joiner1"),
        ]
        for at, action, target in schedule:
            delay = at - sim.now
            if delay > 0:
                yield Timeout(delay)
            if action == "join":
                stats = yield from cluster.join(target)
            else:
                stats = yield from cluster.decommission(target)
            sim.metrics.inc(
                "chaos.rebalance.versions_rebalanced", stats["versions_moved"]
            )
