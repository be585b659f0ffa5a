"""Wiring: one NonStop box (or two generations of it) on a simulator."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.sim.scheduler import Simulator
from repro.tandem.adp import AuditDiskProcess
from repro.tandem.client import AppClient
from repro.tandem.config import TandemConfig
from repro.tandem.disk_process import DiskProcessPair
from repro.tandem.registry import TmfRegistry


class TandemSystem:
    """A complete simulated Tandem system: DP pairs, ADP, TMF, clients.

    >>> system = TandemSystem(TandemConfig(mode="dp2"), seed=1)
    >>> client = system.client()
    >>> def job():
    ...     txn = client.begin()
    ...     yield from client.write(txn, "dp0", "x", 1)
    ...     yield from client.commit(txn)
    >>> system.sim.run_process(job())
    """

    def __init__(self, config: Optional[TandemConfig] = None, seed: int = 0) -> None:
        self.config = config or TandemConfig()
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim,
            default_link=LinkConfig(latency=FixedLatency(self.config.message_latency)),
        )
        self.registry = TmfRegistry()
        self.adp = AuditDiskProcess(self.sim, self.network, self.registry)
        self.pairs: Dict[str, DiskProcessPair] = {
            f"dp{i}": DiskProcessPair(
                self.sim, self.network, self.registry, f"dp{i}", self.config
            )
            for i in range(self.config.num_dps)
        }
        self._client_ids = itertools.count(1)

    def client(self) -> AppClient:
        """A new application client on the fabric."""
        return AppClient(self, f"app{next(self._client_ids)}")

    def pair(self, name: str) -> DiskProcessPair:
        if name not in self.pairs:
            raise SimulationError(f"unknown DP pair {name!r}")
        return self.pairs[name]

    def crash_primary(self, pair_name: str) -> List[int]:
        """Crash the serving side of one pair; returns aborted txn ids."""
        return self.pair(pair_name).crash_primary()

    # ------------------------------------------------------------------
    # Invariant checks used by tests and experiments

    def committed_durable(self) -> bool:
        """Every transaction the ADP decided must have its writes visible
        in some pair's serving image or pending-recovery state."""
        committed = self.adp.committed_txns()
        for txn_id in committed:
            for pair in self.pairs.values():
                state = pair.state()
                if txn_id in state.pending:
                    return False  # committed but unapplied after recovery
        return True
