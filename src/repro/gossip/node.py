"""One replica on the fabric."""

from __future__ import annotations

from typing import Any, Dict, Generator, Sequence

from repro.core.replica import Replica
from repro.errors import SimulationError, TimeoutError_
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import pacing

#: One retry on a short timer, no backoff: gossip rounds are periodic
#: anyway, so the loop itself is the backoff. Matches the historic
#: ``timeout=0.5, retries=1`` discipline exactly.
GOSSIP_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)


class GossipNode:
    """A replica plus its endpoint and gossip loop."""

    def __init__(
        self,
        network: Network,
        replica: Replica,
        peers: Sequence[str],
        period: float = 1.0,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"bad gossip period {period}")
        self.network = network
        self.sim = network.sim
        self.replica = replica
        self.peers = [p for p in peers if p != replica.name]
        self.period = period
        self.endpoint = Endpoint(network, replica.name)
        self.endpoint.register("DIGEST", self._handle_digest)
        self.endpoint.register("OPS", self._handle_ops)
        self.endpoint.start()
        self.rounds_attempted = 0
        self.rounds_failed = 0

    # ------------------------------------------------------------------
    # Server side

    def _handle_digest(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        their_uniquifiers = set(msg.payload["have"])
        mine = self.replica.ops
        to_send = [op for op in mine if op.uniquifier not in their_uniquifiers]
        wanted = list(their_uniquifiers - mine.uniquifiers())
        return {"ops": to_send, "want": wanted}

    def _handle_ops(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        self.replica.integrate(msg.payload["ops"])
        return {}

    # ------------------------------------------------------------------
    # Client side

    def exchange_with(self, peer: str) -> Generator[Any, Any, int]:
        """One push-pull round with a peer; returns ops moved (both ways).
        Raises on unreachable peers (callers decide whether that matters)."""
        digest = list(self.replica.ops.uniquifiers())
        reply = yield from self.endpoint.call(
            peer, "DIGEST", {"have": digest}, policy=GOSSIP_POLICY
        )
        incoming = reply["ops"]
        self.replica.integrate(incoming)
        wanted = set(reply["want"])
        outgoing = [op for op in self.replica.ops if op.uniquifier in wanted]
        if outgoing:
            yield from self.endpoint.call(
                peer, "OPS", {"ops": outgoing}, policy=GOSSIP_POLICY
            )
        moved = len(incoming) + len(outgoing)
        if moved:
            self.sim.metrics.inc("gossip.net.ops_moved", moved)
        return moved

    def run(self, until: float) -> None:
        """Start the periodic loop (random peer each round) on the
        node's endpoint until the simulated deadline. Unreachable peers
        are skipped — disconnection is normal life, not an error."""
        self.endpoint.spawn("gossip", lambda: self._loop(until))

    def _loop(self, until: float) -> Generator[Any, Any, None]:
        rng = self.sim.rng.stream(f"gossip:{self.replica.name}")
        for pause in pacing(self.sim, rng, self.period, 0.25, until):
            yield pause
            if not self.peers:
                continue
            peer = rng.choice(self.peers)
            self.rounds_attempted += 1
            try:
                yield from self.exchange_with(peer)
            except (TimeoutError_, RpcError):
                self.rounds_failed += 1

    def crash(self, cause: str = "crash") -> None:
        """Fail fast: the replica object survives (its op set models the
        durable log); the serving endpoint and its loop die."""
        self.endpoint.stop(cause)
        self.sim.trace.emit(self.replica.name, "gossip.crash", cause=str(cause))

    def restart(self) -> None:
        self.endpoint.restart()
        self.sim.trace.emit(self.replica.name, "gossip.restart")
