"""Convenience wiring: N gossiping replicas on one fabric."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.antientropy import converged
from repro.core.guesses import Ledger
from repro.core.operation import Operation, TypeRegistry
from repro.core.replica import Replica
from repro.core.rules import RuleEngine
from repro.errors import SimulationError
from repro.gossip.node import GossipNode
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.sim.scheduler import Simulator


class GossipCluster:
    """N replicas of one op space, gossiping over a shared fabric."""

    message_latency = 0.005

    def __init__(
        self,
        registry: TypeRegistry,
        num_replicas: int = 3,
        period: float = 1.0,
        seed: int = 0,
        rules_factory: Optional[Callable[[], RuleEngine]] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        if num_replicas < 1:
            raise SimulationError("need at least one replica")
        self.sim = sim or Simulator(seed=seed)
        self.network = Network(
            self.sim,
            default_link=LinkConfig(latency=FixedLatency(self.message_latency)),
        )
        self.registry = registry
        self.ledger = Ledger()
        names = [f"g{i}" for i in range(num_replicas)]
        self.nodes: Dict[str, GossipNode] = {}
        for name in names:
            replica = Replica(
                name,
                registry,
                rules=rules_factory() if rules_factory else None,
                ledger=self.ledger,
                clock=lambda: self.sim.now,
            )
            self.nodes[name] = GossipNode(
                self.network, replica, peers=names, period=period
            )

    # ------------------------------------------------------------------

    def node(self, name: str) -> GossipNode:
        if name not in self.nodes:
            raise SimulationError(f"unknown gossip node {name!r}")
        return self.nodes[name]

    def replica(self, name: str) -> Replica:
        return self.node(name).replica

    def submit(self, name: str, op: Operation) -> bool:
        """Ingress at one replica."""
        return self.replica(name).submit(op)

    # ------------------------------------------------------------------

    def converged(self) -> bool:
        return converged([node.replica for node in self.nodes.values()])

    def states(self) -> List:
        return [node.replica.state for node in self.nodes.values()]
