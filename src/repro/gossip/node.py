"""One replica on the fabric."""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.core.operation import Operation
from repro.core.replica import Replica
from repro.errors import SimulationError, TimeoutError_
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import Timeout

#: One retry on a short timer, no backoff: gossip rounds are periodic
#: anyway, so the loop itself is the backoff. Matches the historic
#: ``timeout=0.5, retries=1`` discipline exactly.
GOSSIP_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)


def wire_op(op: Operation) -> Dict[str, Any]:
    """Serialize an operation for the fabric."""
    return {
        "op_type": op.op_type,
        "args": dict(op.args),
        "uniquifier": op.uniquifier,
        "origin": op.origin,
        "ingress_time": op.ingress_time,
    }


def op_from_wire(data: Dict[str, Any]) -> Operation:
    return Operation(
        op_type=data["op_type"],
        args=data["args"],
        uniquifier=data["uniquifier"],
        origin=data["origin"],
        ingress_time=data["ingress_time"],
    )


class GossipNode:
    """A replica plus its endpoint and gossip loop."""

    def __init__(
        self,
        network: Network,
        replica: Replica,
        peers: Sequence[str],
        period: float = 1.0,
        policy: Optional[RetryPolicy] = None,
        skip_unreachable: bool = False,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"bad gossip period {period}")
        self.network = network
        self.sim = network.sim
        self.replica = replica
        self.peers = [p for p in peers if p != replica.name]
        self.period = period
        self.policy = policy or GOSSIP_POLICY
        self.skip_unreachable = skip_unreachable
        self.endpoint = Endpoint(network, replica.name)
        self.endpoint.register("DIGEST", self._handle_digest)
        self.endpoint.register("OPS", self._handle_ops)
        self.endpoint.start()
        self._loop_proc = None
        self.rounds_attempted = 0
        self.rounds_failed = 0

    # ------------------------------------------------------------------
    # Server side

    def _handle_digest(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        their_uniquifiers = set(msg.payload["have"])
        mine = self.replica.ops
        to_send = [
            wire_op(op) for op in mine if op.uniquifier not in their_uniquifiers
        ]
        wanted = list(their_uniquifiers - mine.uniquifiers())
        return {"ops": to_send, "want": wanted}

    def _handle_ops(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        ops = [op_from_wire(entry) for entry in msg.payload["ops"]]
        self.replica.integrate(ops)
        return {"integrated": len(ops)}

    # ------------------------------------------------------------------
    # Client side

    def exchange_with(self, peer: str) -> Generator[Any, Any, int]:
        """One push-pull round with a peer; returns ops moved (both ways).
        Raises on unreachable peers (callers decide whether that matters)."""
        digest = list(self.replica.ops.uniquifiers())
        reply = yield from self.endpoint.call(
            peer, "DIGEST", {"have": digest}, policy=self.policy
        )
        incoming = [op_from_wire(entry) for entry in reply["ops"]]
        self.replica.integrate(incoming)
        wanted = set(reply["want"])
        outgoing = [
            wire_op(op) for op in self.replica.ops if op.uniquifier in wanted
        ]
        if outgoing:
            yield from self.endpoint.call(
                peer, "OPS", {"ops": outgoing}, policy=self.policy
            )
        moved = len(incoming) + len(outgoing)
        if moved:
            self.sim.metrics.inc("gossip.net.ops_moved", moved)
        return moved

    def run(self, until: float) -> None:
        """Start the periodic loop (random peer each round) until the
        simulated deadline. Unreachable peers are skipped — disconnection
        is normal life, not an error."""
        self._loop_proc = self.sim.spawn(
            self._loop(until), name=f"gossip:{self.replica.name}"
        )

    def _loop(self, until: float) -> Generator[Any, Any, None]:
        rng = self.sim.rng.stream(f"gossip:{self.replica.name}")
        while True:
            delay = self.period * rng.uniform(0.75, 1.25)
            if self.sim.now + delay > until:
                return
            yield Timeout(delay)
            if not self.peers:
                continue
            peer = rng.choice(self.peers)
            self.rounds_attempted += 1
            if self.skip_unreachable and not self.network.reachable(
                self.replica.name, peer
            ):
                # Don't burn a round timing out on a peer we already know
                # we can't reach; count the skip so convergence accounting
                # still sees the missed exchange.
                self.rounds_failed += 1
                self.sim.metrics.inc("gossip.skipped_unreachable")
                self.sim.trace.emit(
                    self.replica.name, "gossip.skip_unreachable", peer=peer
                )
                continue
            try:
                yield from self.exchange_with(peer)
            except (TimeoutError_, RpcError):
                self.rounds_failed += 1

    def stop(self) -> None:
        if self._loop_proc is not None:
            self._loop_proc.interrupt("stopped")
        self.endpoint.stop("stopped")

    def crash(self, cause: str = "crash") -> None:
        """Fail fast: the replica object survives (its op set models the
        durable log); the serving endpoint and loop die."""
        if self._loop_proc is not None:
            self._loop_proc.interrupt(cause)
        self.endpoint.stop(cause)
        self.sim.trace.emit(self.replica.name, "gossip.crash", cause=str(cause))

    def restart(self, until: Optional[float] = None) -> None:
        self.endpoint.restart()
        self.sim.trace.emit(self.replica.name, "gossip.restart")
        if until is not None:
            self.run(until)
