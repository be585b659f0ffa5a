"""Membership-divergence chaos: gossiped liveness views under fire.

With gossip membership attached, *who is alive* is no longer a fact —
it is N simultaneously-held opinions, each fed by local probes and
second-hand rumors, each possibly stale, each driving real routing
decisions (preference walks, anti-entropy pairing, client quorums).
This scenario partitions and degrades the fabric while a seeded write
stream runs, letting the views diverge as far as the chaos can push
them, then heals the world and checks three claims:

- **views converge after heal**: driven full push-pull rounds bring
  every live node's view to entry-for-entry agreement (time measured);
- **a refuted suspicion never sticks**: any node that is actually alive
  at quiesce ends ``alive`` in every view — a suspicion or death verdict
  planted during the chaos is always outbid by the member's own
  incarnation bump once the rumors can travel;
- **no acked write lost while views disagree** (acked-is-durable): every
  PUT acknowledged under divergent routing (stale views steering writes
  to fallback nodes, hinted handoff carrying them) is held by a live
  node after the heal + repair rounds.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import AckedWrites, Crashable, Scenario
from repro.chaos.invariants import InvariantMonitor
from repro.cluster.gossip_membership import ALIVE, views_converged
from repro.dynamo.cluster import DynamoCluster
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop


class MembershipDivergenceScenario(Scenario):
    """Gossiped membership views diverging — and reconverging — under
    partitions, lossy links, and crash/restart."""

    name = "membership_divergence"
    policies = ("gossip",)
    policy = "gossip"

    num_nodes = 6
    horizon = 14.0
    put_interval = 0.12
    zipf_rate = 25.0
    zipf_keyspace = 4_000
    suspicion_timeout = 1.0

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def spec_defaults(self) -> Dict[str, Any]:
        """Partitions are the interesting weather here (they split the
        rumor mill itself); lossy links flap individual probes, and one
        crash/restart exercises the dead-verdict path. At most one node
        is down at a time so W=2 quorums stay satisfiable and 'no acked
        write lost' is a fair claim."""
        return dict(
            nodes=self.node_names() + ("writer", "zipf"),
            min_crashes=0, max_crashes=1,
            max_partitions=2,
            max_link_faults=2,
            fault_loss=0.25,
            min_episode=2.0 * self.suspicion_timeout,
            max_episode=0.25 * self.horizon,
        )

    # ------------------------------------------------------------------

    def build(self, sim: Simulator) -> ChaosTargets:
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        self._cluster = cluster
        cluster.attach_gossip_membership(suspicion_timeout=self.suspicion_timeout)
        cluster.start_membership_gossip(until=self.horizon)
        # Each coordinator routes by a *different* node's local view —
        # divergence between those two views is load-bearing, not
        # cosmetic.
        self._writer = cluster.client("writer", view_of="node0")
        self._zipf_client = cluster.client("zipf", view_of="node1")
        # Unique-key puts routed by one node's (possibly stale) view —
        # every ack is a durability promise made while the truth was in
        # dispute. No ring-reconverges claim: the repair rounds all run.
        self._writes = AckedWrites(cluster, "chaos.mship")
        self._views_converged_at: Optional[float] = None
        self._stuck: List[Tuple[str, str, str]] = []

        # A crashed node serves nothing and *computes* nothing: its gossip
        # loop dies with its endpoint (a corpse spreads no rumors).
        targets = {
            name: Crashable(lambda _cause, n=node: n.crash(), node.restart)
            for name, node in cluster.nodes.items()
        }
        for client in (self._writer, self._zipf_client):
            targets[client.name] = Crashable(
                client.endpoint.stop, client.endpoint.restart
            )
        return ChaosTargets(sim, network=cluster.network, nodes=targets)

    def invariants(self, monitor: InvariantMonitor) -> None:
        monitor.register(
            "views-converge-after-heal",
            lambda: (
                None if self._views_converged_at is not None
                else "views never reached entry-for-entry agreement "
                     "after the heal"
            ),
            when="quiesce",
        )
        monitor.register(
            "refuted-suspicion-never-sticks",
            lambda: (
                f"{len(self._stuck)} live nodes still believed "
                f"dead/left somewhere, first: {self._stuck[:5]}"
                if self._stuck else None
            ),
            when="quiesce",
        )
        monitor.register("acked-is-durable", self._writes.durable, when="quiesce")

    def drive(self, sim: Simulator) -> None:
        zipf_keys = ZipfKeyGenerator(
            sim.rng.stream("chaos.mship.zipf"),
            keyspace=self.zipf_keyspace, theta=0.99, prefix="mk",
        )
        self._writes.spawn_writer(
            self._writer, "chaos.mship.writer", self.put_interval, self.horizon
        )
        sim.spawn(
            zipf_open_loop(
                sim, self._zipf_client, zipf_keys, rate=self.zipf_rate,
                until=self.horizon, stream="chaos.mship.zipf.arrivals",
            ),
            name="chaos.mship.zipf",
        )
        sim.spawn(
            self._divergence_sampler(sim, self._cluster),
            name="chaos.mship.sampler",
        )

    def quiesce(self, sim: Simulator) -> None:
        """Drive forced full push-pull rounds until every view agrees
        (epidemic spread is O(log n) rounds; the bound below is generous,
        not load-bearing), then repair and audit the acked writes."""
        cluster = self._cluster
        sim.run()  # drain in-flight requests and suspicion timers
        quiesce_start = sim.now
        for _ in range(self.num_nodes + 6):
            for name in sorted(cluster.membership_gossips):
                if cluster.alive(name):
                    sim.run_process(
                        cluster.membership_gossips[name].round_once(
                            force_full=True
                        )
                    )
            if views_converged(list(cluster.views.values())):
                self._views_converged_at = sim.now
                sim.metrics.observe(
                    "chaos.mship.time_to_view_converged",
                    sim.now - quiesce_start,
                )
                break
        self._stuck = self._stuck_suspicions(cluster)
        # Repair rounds so hinted and rerouted writes land home.
        self._writes.repair(self.num_nodes + 2, cluster.run_merkle_round)

    # ------------------------------------------------------------------

    def _divergence_sampler(
        self, sim: Simulator, cluster: DynamoCluster
    ) -> Generator:
        """Cadence sampling of how split the opinions are: the count of
        ticks on which live nodes' views disagreed (the divergence
        window the no-lost-write claim must hold through)."""
        while sim.now + 0.5 <= self.horizon:
            yield Timeout(0.5)
            live_views = [
                cluster.views[name]
                for name in cluster.views
                if cluster.alive(name)
            ]
            if not views_converged(live_views):
                sim.metrics.inc("chaos.mship.divergent_ticks")

    def _stuck_suspicions(
        self, cluster: DynamoCluster
    ) -> List[Tuple[str, str, str]]:
        """(viewer, node, believed-status) for every live node some view
        still refuses to believe in after heal + convergence rounds."""
        stuck = []
        for viewer, view in sorted(cluster.views.items()):
            if not cluster.alive(viewer):
                continue
            for name in cluster.nodes:
                if not cluster.alive(name):
                    continue
                status = view.status_of(name)
                if status != ALIVE:
                    stuck.append((viewer, name, status))
        return stuck
