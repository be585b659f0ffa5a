"""Mixed-consistency transactions over the fabric (Creek-style).

The programming model PAPERS.md's Creek paper distills from "Building on
Quicksand": every operation is either

- **weak** — executed immediately against the origin replica's
  speculative state and acked as a *guess* (``txn.guesses``); the agreed
  total order may later disagree, in which case the origin rolls its
  tentative suffix back, re-executes, and — when the re-execution changes
  an already-acked result — settles the guess wrong in the system's
  :class:`~repro.core.guesses.Ledger`, which emits its one apology (a
  retracted grant releases the fulfillment pool's unit, an upgraded
  decline re-reserves one: §7.4's cheap apology, executed); or
- **strong** — acked only once it holds a position in the total order
  that a majority has durably accepted; a strong ack is never reordered.

The total order is minted by a **fenced leader**: leadership rides the
:mod:`repro.failover` stack (heartbeats → detector → controller →
epochs), and every ordering batch carries its regime's epoch so a
deposed-but-alive leader's batches bounce
(``txn.stale_batches_rejected``) instead of forking history.
Within a regime the log rules are Raft-shaped, restated in quicksand
terms:

- a replica appends a batch only when it extends what it already has
  (gap or wrong previous epoch ⇒ NACK and the leader backs its cursor
  up);
- a higher-epoch batch that contradicts an *uncommitted* suffix rolls
  that suffix back (``txn.rolled_back``) — those were guesses, and their
  origins still hold them in their outboxes for re-forwarding;
- the commit watermark is the quorum-acked length, advanced only
  through an entry of the leader's own epoch (each regime opens with a
  no-op entry so this converges) — which is why a committed prefix, and
  therefore a strong ack, can never be rolled back;
- a new leader first pulls logs from a majority and adopts the best
  (last-epoch, length) one before minting, so nothing a prior regime
  committed is ever minted over.

Which class an operation gets is not declared but **measured**:
:func:`repro.patterns.classify.classify_operation_space` profiles the
machine's op types on a sample workload and
:meth:`~repro.patterns.classify.OperationProfile.op_classes` routes the
commutative ones down the weak fast path. Unmeasured types default to
strong — the safe guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.guesses import Apology, Ledger
from repro.core.operation import Operation
from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.failover.controller import FailoverController
from repro.failover.detector import FailureDetector, FixedTimeoutDetector
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.patterns import OP_STRONG, OP_WEAK, classify_operation_space
from repro.resilience import RetryPolicy
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.txn.machine import TxnMachine, sample_resource_ops

#: Errors a replication/pull RPC can die of without implicating the
#: protocol: silence, remote crash-restart, an endpoint mid-stop.
_RPC_FAILURES = (TimeoutError_, RpcError, CrashedError, SimulationError)

#: The ledger rule a weak op's changed result is settled under.
REORDER = "reorder"


@dataclass(frozen=True)
class LogEntry:
    """One slot of the total order: the minting regime's epoch plus the
    operation (None for the no-op a regime opens with)."""

    epoch: int
    op: Optional[Operation]


@dataclass
class TxnTicket:
    """What ``submit`` hands the client.

    For a weak op, ``guess`` is the §5.7 answer — available immediately,
    honest about nothing. ``done`` (an Event) settles with the
    *stabilized* result once the op commits in the total order; for a
    strong op that settlement IS the ack.
    """

    op: Operation
    op_class: str
    replica: str
    submitted_at: float
    guess: Any = field(default=None, init=False)
    done: Any = None

    @property
    def stabilized(self) -> bool:
        return self.done is not None and self.done.triggered

    @property
    def result(self) -> Any:
        """The best currently-tellable answer: truth if stabilized,
        otherwise the guess."""
        if self.stabilized:
            return self.done.value
        return self.guess


class TxnReplica:
    """One replica of the mixed-consistency log.

    Holds two folds of the same :class:`~repro.txn.machine.TxnMachine`:
    ``stable_state`` (the committed prefix — never rolled back) and
    ``spec_state`` (stable + uncommitted log suffix + this replica's own
    not-yet-ordered outbox — the state weak guesses are answered from).
    """

    def __init__(
        self,
        system: "MixedTxnSystem",
        name: str,
        peers: Sequence[str],
    ) -> None:
        self.system = system
        self.sim = system.sim
        self.name = name
        self.peers = [p for p in peers if p != name]
        self.machine = system.machine
        self.endpoint = Endpoint(system.network, name)
        self.endpoint.register("TXN_FORWARD", self._handle_forward)
        self.endpoint.register("TXN_ORDER", self._handle_order)
        self.endpoint.register("TXN_PULL", self._handle_pull)

        self.epoch = 0
        self.leading = False
        self._synced = False
        self.leader_hint: Optional[str] = None

        self.log: List[LogEntry] = []
        self.commit = 0
        self.stable_state = self.machine.initial()
        self.spec_state = self.machine.copy(self.stable_state)
        self._log_uniqs: set = set()

        #: Own client ops, kept until *committed* — survives any rollback
        #: of the tentative suffix (re-forwarded until ordered for good).
        self.outbox: Dict[str, Operation] = {}
        self.waiters: Dict[str, Any] = {}          # uniquifier -> Event
        self.tickets: Dict[str, TxnTicket] = {}

        # Leader-side volatile state (rebuilt each regime).
        self._pending: List[Operation] = []
        self._pending_uniqs: set = set()
        self._match: Dict[str, int] = {}

        self.prefix_violation = False  # latched by safety checks; the
        # strong-order invariant reads it — never expected to trip.
        #: The epoch this replica leads under, until stop(): a lead loop
        #: that a restart respawns after its regime ended returns.
        self._regime: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        self.endpoint.start()
        self.endpoint.spawn("forward", self._forward_loop)

    def stop(self) -> None:
        self._regime = None
        self.leading = False
        self.endpoint.stop("stopped")

    # ------------------------------------------------------------------
    # Client surface

    def op_class(self, op: Operation) -> str:
        return self.system.classes.get(op.op_type, OP_STRONG)

    def submit(self, op: Operation) -> TxnTicket:
        """Accept one client operation at this replica.

        Weak: answered from ``spec_state`` right now — the guess. Strong:
        the returned ticket's ``done`` event is the ack; yield on it.
        """
        op.origin = self.name
        op.ingress_time = self.sim.now
        klass = self.op_class(op)
        done = self.sim.event(name=("txn:%s", op.uniquifier))
        ticket = TxnTicket(
            op=op, op_class=klass, replica=self.name,
            submitted_at=self.sim.now, done=done,
        )
        self.outbox[op.uniquifier] = op
        self.waiters[op.uniquifier] = done
        self.tickets[op.uniquifier] = ticket
        if klass == OP_WEAK:
            guess = self.machine.apply(self.spec_state, op)
            self.system.ledger.guess(op.uniquifier, guess, self.name)
            ticket.guess = guess
            self.sim.metrics.inc("txn.guesses")
            self.sim.trace.emit(
                self.name, "txn.guess", op=op.uniquifier, op_type=op.op_type,
            )
        else:
            self.sim.metrics.inc("txn.strong_submitted")
        return ticket

    # ------------------------------------------------------------------
    # Speculation

    def _rebuild_spec(self) -> None:
        """The stabilization pass, replica-local half: roll the tentative
        suffix back (start from the committed fold) and re-execute it in
        the currently-believed order, then re-apply own unordered ops."""
        state = self.machine.copy(self.stable_state)
        for entry in self.log[self.commit:]:
            if entry.op is not None:
                self.machine.apply(state, entry.op)
        for uniquifier, op in self.outbox.items():
            if uniquifier not in self._log_uniqs:
                self.machine.apply(state, op)
        self.spec_state = state

    # ------------------------------------------------------------------
    # Commit

    def _advance_commit(self, new_commit: int) -> None:
        for index in range(self.commit, new_commit):
            entry = self.log[index]
            if entry.op is None:
                continue
            op = entry.op
            actual = self.machine.apply(self.stable_state, op)
            self.outbox.pop(op.uniquifier, None)
            if op.origin != self.name:
                continue
            # Origin-side settlement: this is where a guess meets truth.
            self.sim.metrics.inc("txn.stabilized")
            self.sim.metrics.observe(
                "txn.stabilize_latency_s", self.sim.now - op.ingress_time
            )
            if op.uniquifier in self.system.ledger.guesses:
                self._settle(op, actual)
            else:
                self.sim.metrics.observe(
                    "txn.strong_latency_s", self.sim.now - op.ingress_time
                )
            waiter = self.waiters.pop(op.uniquifier, None)
            if waiter is not None and not waiter.triggered:
                waiter.trigger(actual)
        self.commit = new_commit

    def _settle(self, op: Operation, actual: Any) -> None:
        apology = self.system.ledger.settle(op.uniquifier, actual, REORDER)
        if apology is None:
            return
        self.sim.metrics.inc("txn.reordered")
        self.sim.trace.emit(
            self.name, "txn.reordered", op=op.uniquifier, op_type=op.op_type,
        )
        self.sim.metrics.inc("txn.apologies")
        self.sim.trace.emit(
            "txn", "apology", op=op.uniquifier, op_type=op.op_type,
            action=apology.resolution,
        )

    def committed_uniquifiers(self) -> List[str]:
        """The committed order, as the invariants read it."""
        return [
            entry.op.uniquifier
            for entry in self.log[: self.commit]
            if entry.op is not None
        ]

    # ------------------------------------------------------------------
    # Follower handlers

    def _adopt_epoch(self, epoch: int) -> None:
        if epoch <= self.epoch:
            return
        self.epoch = epoch
        if self.leading:
            self.leading = False
            self.sim.trace.emit(self.name, "txn.step_down", epoch=epoch)

    def _handle_forward(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        if self.leading and self._synced:
            for op in msg.payload["ops"]:
                self._enqueue(op)
            return {"ok": True}
        return {"ok": False, "leader": self.leader_hint}

    def _enqueue(self, op: Operation) -> None:
        if op.uniquifier in self._log_uniqs or op.uniquifier in self._pending_uniqs:
            return
        self._pending.append(op)
        self._pending_uniqs.add(op.uniquifier)

    def _handle_order(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        payload = msg.payload
        epoch = payload["epoch"]
        if epoch < self.epoch:
            self.sim.metrics.inc("txn.stale_batches_rejected")
            self.sim.trace.emit(
                self.name, "txn.stale_batch", src=msg.src,
                epoch=epoch, current=self.epoch,
            )
            return {"ok": False, "stale": True, "epoch": self.epoch}
        self._adopt_epoch(epoch)
        self.leader_hint = payload["leader"]
        base = payload["base"]
        if base > len(self.log):
            return {"ok": False, "length": len(self.log)}
        if base > 0 and self.log[base - 1].epoch != payload["prev_epoch"]:
            if base - 1 < self.commit:
                # A leader disputing our committed prefix would be a
                # protocol-safety break; latch it for the invariant.
                self.prefix_violation = True
                self.sim.trace.emit(self.name, "txn.prefix_violation", base=base)
                return {"ok": False, "length": self.commit}
            return {"ok": False, "length": base - 1}

        changed = False
        for offset, entry in enumerate(payload["entries"]):
            index = base + offset
            if index < len(self.log):
                if self.log[index].epoch == entry.epoch:
                    continue  # already have this entry
                if index < self.commit:
                    self.prefix_violation = True
                    self.sim.trace.emit(
                        self.name, "txn.prefix_violation", base=index
                    )
                    return {"ok": False, "length": self.commit}
                self._truncate(index)
            self.log.append(entry)
            if entry.op is not None:
                self._log_uniqs.add(entry.op.uniquifier)
            changed = True

        new_commit = min(payload["commit"], len(self.log))
        if new_commit > self.commit:
            self._advance_commit(new_commit)
            changed = True
        if changed:
            self._rebuild_spec()
        return {"ok": True, "length": len(self.log)}

    def _truncate(self, index: int) -> None:
        """Roll the tentative suffix ``log[index:]`` back — those guesses
        lost the ordering race to a newer regime."""
        dropped = [e for e in self.log[index:] if e.op is not None]
        self.log = self.log[:index]
        self._log_uniqs = {
            entry.op.uniquifier for entry in self.log if entry.op is not None
        }
        if dropped:
            self.sim.metrics.inc("txn.rolled_back", len(dropped))
            self.sim.trace.emit(
                self.name, "txn.rollback", at=index, dropped=len(dropped),
            )

    def _handle_pull(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        self._adopt_epoch(msg.payload["epoch"])
        return {
            "epoch": self.epoch,
            "commit": self.commit,
            "entries": list(self.log),
        }

    # ------------------------------------------------------------------
    # Forwarding (origin keeps its ops until committed)

    def _forward_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.system.forward_interval)
            if not self.outbox:
                continue
            ops = list(self.outbox.values())
            if self.leading and self._synced:
                for op in ops:
                    self._enqueue(op)
                continue
            target = self.leader_hint
            if target and target != self.name:
                self.endpoint.cast(
                    target, "TXN_FORWARD",
                    {"ops": ops, "from": self.name},
                )

    # ------------------------------------------------------------------
    # Leadership

    def begin_leadership(self, epoch: int) -> None:
        """Take over the minting role under a freshly-granted epoch."""
        self.endpoint.end("lead", "superseded")
        self.epoch = max(self.epoch, epoch)
        self._regime = epoch
        self.endpoint.spawn("lead", lambda: self._lead(epoch))

    def _best_log(
        self, responses: Dict[str, Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        """Raft's up-to-date rule over the pulled logs: highest last-entry
        epoch wins, then length; None when our own log is best."""

        def rank(entries: List[LogEntry]) -> Tuple[int, int]:
            last = entries[-1].epoch if entries else 0
            return (last, len(entries))

        best_name, best_entries, best_rank = None, None, rank(self.log)
        for peer, reply in sorted(responses.items()):
            entries = reply["entries"]
            if rank(entries) > best_rank:
                best_name, best_entries, best_rank = peer, entries, rank(entries)
        if best_name is None:
            return None
        return {"entries": best_entries, "commit": responses[best_name]["commit"]}

    def _install_log(self, entries: List[LogEntry], commit: int) -> None:
        for index in range(min(self.commit, len(entries))):
            ours = self.log[index]
            theirs = entries[index]
            if ours.epoch != theirs.epoch or (
                (ours.op is None) != (theirs.op is None)
                or (ours.op is not None
                    and ours.op.uniquifier != theirs.op.uniquifier)
            ):
                self.prefix_violation = True
                self.sim.trace.emit(self.name, "txn.prefix_violation", base=index)
                return
        rolled = sum(
            1 for entry in self.log[len(entries):] if entry.op is not None
        )
        if rolled:
            self.sim.metrics.inc("txn.rolled_back", rolled)
        self.log = list(entries)
        self._log_uniqs = {
            entry.op.uniquifier for entry in self.log if entry.op is not None
        }
        if commit > self.commit:
            self._advance_commit(min(commit, len(self.log)))

    def _lead(self, epoch: int) -> Generator[Any, Any, None]:
        if self._regime != epoch or self.epoch != epoch:
            return  # respawned by a restart after its regime ended
        self.leading = True
        self._synced = False
        self.leader_hint = self.name
        self._pending = []
        self._pending_uniqs = set()

        # --- Sync: adopt the best log a majority can attest to, so no
        # committed entry of a prior regime is ever minted over.
        while self.leading and self.epoch == epoch:
            responses: Dict[str, Dict[str, Any]] = {}
            for peer in self.peers:
                try:
                    reply = yield from self.endpoint.call(
                        peer, "TXN_PULL", {"epoch": epoch},
                        policy=self.system.rpc_policy,
                    )
                except _RPC_FAILURES:
                    continue
                if reply["epoch"] > epoch:
                    self._adopt_epoch(reply["epoch"])
                    return
                responses[peer] = reply
            if len(responses) + 1 >= self.system.quorum:
                best = self._best_log(responses)
                if best is not None:
                    self._install_log(best["entries"], best["commit"])
                # Open the regime with a no-op: the entry of our own epoch
                # the commit rule needs to pull prior-epoch entries over
                # the watermark.
                self.log.append(LogEntry(epoch=epoch, op=None))
                self._rebuild_spec()
                self._synced = True
                self.sim.metrics.inc("txn.regimes")
                self.sim.trace.emit(
                    self.name, "txn.lead", epoch=epoch, log=len(self.log),
                )
                break
            # Minority side: keep trying — strong ops stall here, weak
            # guesses elsewhere keep flowing. That asymmetry is E18.
            yield Timeout(self.system.sync_retry)
        if not self._synced:
            return

        # --- Mint: absorb forwarded ops, replicate, advance the
        # quorum-acked commit watermark.
        self._match = {peer: 0 for peer in self.peers}
        while self.leading and self.epoch == epoch:
            yield Timeout(self.system.mint_interval)
            if not self.leading or self.epoch != epoch:
                break
            fresh = [
                op for op in self._pending
                if op.uniquifier not in self._log_uniqs
            ]
            self._pending = []
            self._pending_uniqs = set()
            for op in fresh:
                self.log.append(LogEntry(epoch=epoch, op=op))
                self._log_uniqs.add(op.uniquifier)
            if fresh:
                self._rebuild_spec()

            acked = [len(self.log)]
            for peer in self.peers:
                base = min(self._match.get(peer, 0), len(self.log))
                payload = {
                    "epoch": epoch,
                    "leader": self.name,
                    "base": base,
                    "prev_epoch": self.log[base - 1].epoch if base else 0,
                    "entries": self.log[base:],
                    "commit": self.commit,
                }
                try:
                    reply = yield from self.endpoint.call(
                        peer, "TXN_ORDER", payload,
                        policy=self.system.rpc_policy,
                    )
                except _RPC_FAILURES:
                    continue
                if reply.get("stale"):
                    self._adopt_epoch(reply["epoch"])
                    break
                if reply.get("ok"):
                    self._match[peer] = reply["length"]
                    acked.append(reply["length"])
                else:
                    self._match[peer] = min(
                        reply.get("length", 0), max(base - 1, 0)
                    )
            if not self.leading or self.epoch != epoch:
                break
            if len(acked) >= self.system.quorum:
                acked.sort(reverse=True)
                candidate = acked[self.system.quorum - 1]
                # Commit only through an entry of our own epoch (the
                # regime's no-op guarantees one exists below any index a
                # quorum acked in this regime).
                while (
                    candidate > self.commit
                    and self.log[candidate - 1].epoch != epoch
                ):
                    candidate -= 1
                if candidate > self.commit:
                    self._advance_commit(candidate)
                    self._rebuild_spec()
        self.leading = False


class MixedTxnSystem:
    """Three replicas of one :class:`~repro.txn.machine.TxnMachine`, a
    fenced minting leader, and the apology machinery — the full
    mixed-consistency fabric in one object.

    ``classes`` (op type → :data:`~repro.patterns.classify.OP_WEAK` /
    :data:`~repro.patterns.classify.OP_STRONG`) is the *measured*
    classification of ``machine``'s ``registry()`` over
    :func:`~repro.txn.machine.sample_resource_ops`.
    """

    mint_interval = 0.05
    forward_interval = 0.05
    # One attempt per call: the sync and order loops are the retry.
    rpc_policy = RetryPolicy(max_attempts=1, timeout=0.3)
    sync_retry = 0.25
    replica_names = ("txn0", "txn1", "txn2")
    detect_timeout = 1.0
    poll_interval = 0.1

    def __init__(
        self, sim: Simulator, machine: TxnMachine, apology_pool: Any = None
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.network = Network(sim)
        self.profile = classify_operation_space(
            machine.registry(), sample_resource_ops()
        )
        self.classes = self.profile.op_classes()

        #: The fulfillment-side pool (real seats, real rooms) that acked
        #: grants were taken from; apologies compensate against it.
        self.apology_pool = apology_pool
        self.ledger = Ledger()
        if apology_pool is not None:
            self.ledger.register_handler(REORDER, self._compensate)
        self.quorum = len(self.replica_names) // 2 + 1
        self.names = list(self.replica_names)
        self.replicas: Dict[str, TxnReplica] = {
            name: TxnReplica(self, name, self.names) for name in self.names
        }
        self.serving = self.names[0]

        # --- Failover stack: every leader heartbeats to a monitor, a
        # conviction promotes the ring successor under a fresh epoch.
        self.detector: FailureDetector = FixedTimeoutDetector(
            sim, [self.serving], timeout=self.detect_timeout, name="txn.detector"
        )
        self.detector.on_contradiction(
            lambda node, _at: self.detector.pardon(node)
        )
        self.controller = FailoverController(
            self.network,
            self.detector,
            "txn.monitor",
            primary_of=lambda: self.serving,
            successor_of=self._successor,
            promote=self._promote,
            name="txn.failover",
        )

    # ------------------------------------------------------------------

    def start(self) -> None:
        for replica in self.replicas.values():
            replica.start()
        self._promote(self.serving, self.controller.grant(self.serving))
        for replica in self.replicas.values():
            replica.leader_hint = self.serving
        self.controller.start(self.poll_interval)

    def stop(self) -> None:
        self.controller.stop()
        for replica in self.replicas.values():
            replica.stop()

    def _successor(self, node: str) -> str:
        index = self.names.index(node)
        return self.names[(index + 1) % len(self.names)]

    def _promote(self, new_primary: str, epoch: int) -> None:
        # A deposed leader keeps heartbeating: only its own silence, seen
        # from the monitor's side, may convict it, and its heartbeats
        # after a heal are what refute a wrong conviction.
        self.serving = new_primary
        self.replicas[new_primary].begin_leadership(epoch)
        self.controller.heartbeat_from(self.replicas[new_primary].endpoint)

    # ------------------------------------------------------------------
    # Client + inspection surface

    def submit(self, replica: str, op: Operation) -> TxnTicket:
        return self.replicas[replica].submit(op)

    @property
    def epoch(self) -> int:
        return self.controller.epoch

    def converged(self) -> bool:
        """Do all replicas agree on the committed fold? (Quiesce-time
        truth; mid-run the watermarks legitimately differ.)"""
        states = [r.stable_state for r in self.replicas.values()]
        return all(state == states[0] for state in states[1:])

    def _compensate(self, apology: Apology) -> Optional[str]:
        """Apology code for a changed ``{"ok": ...}`` result."""
        told, actual = apology.told, apology.actual
        if not (isinstance(told, dict) and isinstance(actual, dict)
                and "ok" in told and "ok" in actual):
            return None
        if told["ok"] and not actual["ok"]:
            # Over-grant: the unit was promised but the agreed order
            # says no — give the fungible unit back (§7.4).
            self.apology_pool.release(apology.uniquifier)
            return "release"
        if not told["ok"] and actual["ok"]:
            # Good-news apology: the decline was wrong; re-reserve.
            self.apology_pool.allocate(apology.uniquifier)
            return "re-reserve"
        return None
