"""Gossip-driven membership: liveness as an eventually-consistent rumor.

"Building on Quicksand" abandons synchronous knowledge, and the first
casualty is the membership list itself: once nobody waits for global
agreement, every node acts on *its own possibly-stale opinion* of who is
alive. This module makes that opinion a first-class object:

- :class:`MembershipView` is one node's local belief — an entry per
  member ``(name, status ∈ {alive, suspect, dead}, incarnation)``
  merged under a deterministic precedence rule: **higher incarnation
  wins; at equal incarnation the graver status wins**
  (``dead > suspect > alive``). Merging is therefore
  commutative, associative, and idempotent — rumors can arrive late,
  twice, or out of order and every view still converges to the same
  answer.
- **Refutation is the paper's apology applied to liveness**: a node
  that hears itself suspected (or declared dead) bumps its *own*
  incarnation and re-asserts ``alive`` — a fresher rumor that outranks
  the accusation everywhere it spreads. Only the member itself mints
  its incarnations, so a refutation can never be forged by a third
  party's stale gossip.
- A local suspicion (a failure detector's conviction, or a failed
  gossip probe) starts a **suspicion timer**; if no refutation arrives
  within ``suspicion_timeout`` the view declares the member ``dead`` at
  that incarnation, and that verdict — a guess, possibly wrong —
  disseminates like any other rumor.
- :class:`MembershipGossip` spreads deltas epidemically: each accepted
  change gets a retransmit budget ``~ mult·log2(n)`` and piggybacks on
  the next rounds' exchanges (push-pull, ``fanout`` peers per round),
  with a periodic full-view exchange as the anti-entropy backstop so a
  partition-aged view always heals. A peer that fails to answer a
  round is *suspected* — the gossip round doubles as the SWIM-style
  failure probe, so no separate heartbeat fabric is needed.

Nothing here consults registry truth. A view can be wrong — that is
the point — and the chaos scenario in
:mod:`repro.chaos.membership_divergence` measures exactly how wrong,
for how long, and what it costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    BreakerOpenError,
    CrashedError,
    SimulationError,
    TimeoutError_,
)
from repro.net.network import Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import pacing
from repro.sim.scheduler import Simulator

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Precedence at equal incarnation: the graver claim wins.
_STATUS_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}

#: What a peer's failure to answer one gossip round looks like.
_PROBE_ERRORS = (TimeoutError_, RpcError, CrashedError, BreakerOpenError)

#: One retry on a short timer: rounds are periodic anyway, the loop is
#: the backoff (mirrors the op-gossip discipline).
MEMBERSHIP_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)

#: Conviction/contradiction-style observers: ``cb(name, old, new, inc)``.
ChangeObserver = Callable[[str, Optional[str], str, int], None]


def rumor_wins(
    new_status: str, new_inc: int, old_status: str, old_inc: int
) -> bool:
    """The deterministic merge rule, exposed for property tests: does a
    ``(status, incarnation)`` rumor supersede the held one?"""
    if new_status not in _STATUS_RANK or old_status not in _STATUS_RANK:
        raise SimulationError(
            f"unknown member status {new_status!r}/{old_status!r}"
        )
    if new_inc != old_inc:
        return new_inc > old_inc
    return _STATUS_RANK[new_status] > _STATUS_RANK[old_status]


@dataclass
class MemberEntry:
    """One member as this view believes it to be."""

    __slots__ = ("name", "status", "incarnation", "version")

    name: str
    status: str
    incarnation: int
    version: int  # local mutation counter: bumps on every accepted change


class MembershipView:
    """One node's local, possibly-wrong opinion of the whole membership.

    The view is a pure state machine over rumors plus two local verdict
    sources (detector convictions and gossip-probe failures). It owns
    the suspicion timers: entering ``suspect`` schedules a check at
    ``now + suspicion_timeout`` that declares the member ``dead`` unless
    a refutation (or any superseding rumor) moved the entry first.
    """

    #: An accepted change piggybacks on ``mult·log2(n + 1)`` exchanges.
    retransmit_mult = 3.0

    def __init__(
        self,
        owner: str,
        sim: Simulator,
        suspicion_timeout: float = 1.5,
    ) -> None:
        if suspicion_timeout <= 0:
            raise SimulationError(
                f"bad suspicion timeout {suspicion_timeout}"
            )
        self.owner = owner
        self.sim = sim
        self.suspicion_timeout = suspicion_timeout
        self._entries: Dict[str, MemberEntry] = {}
        self._budget: Dict[str, int] = {}
        self._version = 0
        self._on_change: List[ChangeObserver] = []
        self.refutations = 0
        # Always know thyself.
        self._entries[owner] = MemberEntry(owner, ALIVE, 0, 0)

    # ------------------------------------------------------------------
    # Introspection

    def status_of(self, name: str) -> Optional[str]:
        entry = self._entries.get(name)
        return entry.status if entry is not None else None

    def incarnation_of(self, name: str) -> int:
        entry = self._entries.get(name)
        return entry.incarnation if entry is not None else -1

    def is_usable(self, name: str) -> bool:
        """Routable: alive or merely suspected — a suspect is still a
        member that may well answer (the suspicion is a guess). An
        unknown name is unroutable — a joiner this view has not yet
        heard of is skipped, and hinted handoff covers the gap."""
        return self.status_of(name) in (ALIVE, SUSPECT)

    def usable_names(self) -> List[str]:
        return [
            n for n, e in self._entries.items()
            if e.status in (ALIVE, SUSPECT)
        ]

    def entries(self) -> Dict[str, Tuple[str, int]]:
        """``name -> (status, incarnation)`` — the convergence digest two
        views are compared on."""
        return {
            name: (entry.status, entry.incarnation)
            for name, entry in self._entries.items()
        }

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Observers

    def on_change(self, observer: ChangeObserver) -> None:
        self._on_change.append(observer)

    # ------------------------------------------------------------------
    # The merge

    def seed(self, names: Iterable[str]) -> None:
        """Install the bootstrap membership: everyone ``alive`` at
        incarnation 0, with no dissemination budget (every node seeds
        the same entries, there is nothing to spread)."""
        for name in names:
            if name not in self._entries:
                self._entries[name] = MemberEntry(name, ALIVE, 0, 0)

    def apply(self, name: str, status: str, incarnation: int) -> bool:
        """Merge one rumor; returns True when it changed this view.

        A rumor about an unknown name creates the entry (this is how a
        join spreads). A rumor that this view's *owner* is suspect or
        dead triggers refutation instead of acceptance: the owner is
        manifestly alive to itself, so it bumps its incarnation past the
        accusation and re-asserts ``alive`` — the fresher rumor then
        outranks the accusation wherever both travel.
        """
        if status not in _STATUS_RANK:
            raise SimulationError(f"unknown member status {status!r}")
        if incarnation < 0:
            raise SimulationError(f"negative incarnation {incarnation}")
        entry = self._entries.get(name)
        if name == self.owner and status in (SUSPECT, DEAD):
            if entry is not None and not rumor_wins(
                status, incarnation, entry.status, entry.incarnation
            ):
                return False  # already outranked; nothing to refute
            self._refute(incarnation)
            return True
        if entry is None:
            self._entries[name] = MemberEntry(name, status, incarnation, 0)
            self._record_change(name, None, status, incarnation)
            return True
        if not rumor_wins(status, incarnation, entry.status, entry.incarnation):
            return False
        old_status = entry.status
        entry.status = status
        entry.incarnation = incarnation
        self._record_change(name, old_status, status, incarnation)
        return True

    def _refute(self, accused_incarnation: int) -> None:
        """Outbid an accusation against the owner: ``alive`` at
        ``accusation + 1`` — the liveness apology."""
        entry = self._entries[self.owner]
        old_status = entry.status
        entry.status = ALIVE
        entry.incarnation = max(entry.incarnation, accused_incarnation) + 1
        self.refutations += 1
        self.sim.metrics.inc("membership.refutations")
        self.sim.trace.emit(
            self.owner, "membership.refute", incarnation=entry.incarnation
        )
        self._record_change(self.owner, old_status, ALIVE, entry.incarnation)

    def _record_change(
        self, name: str, old: Optional[str], new: str, incarnation: int
    ) -> None:
        self._version += 1
        entry = self._entries[name]
        entry.version = self._version
        self._budget[name] = self._fresh_budget()
        self.sim.metrics.inc("membership.changes")
        if new == SUSPECT:
            self._schedule_expiry(name, entry.version)
        if new == DEAD:
            self.sim.metrics.inc("membership.dead_declared")
        for observer in self._on_change:
            observer(name, old, new, incarnation)

    def _fresh_budget(self) -> int:
        return max(
            3, math.ceil(self.retransmit_mult * math.log2(len(self._entries) + 1))
        )

    # ------------------------------------------------------------------
    # Local verdicts

    def suspect(self, name: str) -> bool:
        """A local reason to doubt ``name`` (conviction, failed probe):
        mark it suspect at its current incarnation and start the clock."""
        if name == self.owner:
            return False  # a node never suspects itself
        entry = self._entries.get(name)
        incarnation = entry.incarnation if entry is not None else 0
        return self.apply(name, SUSPECT, incarnation)

    def clear_suspicion(self, name: str) -> bool:
        """Direct evidence of life (a heartbeat from the 'corpse'): the
        member spoke for itself, so advance its incarnation past the
        suspicion on its behalf — equivalent to hearing its refutation."""
        entry = self._entries.get(name)
        if entry is None or entry.status not in (SUSPECT, DEAD):
            return False
        self.sim.metrics.inc("membership.suspicions_cleared")
        return self.apply(name, ALIVE, entry.incarnation + 1)

    def _schedule_expiry(self, name: str, version: int) -> None:
        self.sim.schedule(self.suspicion_timeout, self._maybe_expire, name, version)

    def _maybe_expire(self, name: str, version: int) -> None:
        """The suspicion timer fired: declare death only if the entry is
        *exactly* as it was when suspected — any refutation, clearance,
        or superseding rumor stamped a newer view-wide version and
        cancels the verdict."""
        entry = self._entries.get(name)
        if entry is None or entry.status != SUSPECT or entry.version != version:
            return
        self.sim.trace.emit(
            self.owner, "membership.declare_dead",
            node=name, incarnation=entry.incarnation,
        )
        self.apply(name, DEAD, entry.incarnation)

    # ------------------------------------------------------------------
    # Wire form

    def deltas(self, limit: Optional[int] = None) -> List[List[Any]]:
        """Entries still carrying retransmit budget, hottest first;
        decrements each included entry's budget (SWIM's piggyback)."""
        hot = sorted(
            (name for name, budget in self._budget.items() if budget > 0),
            key=lambda name: (-self._budget[name], name),
        )
        if limit is not None:
            hot = hot[:limit]
        out = []
        for name in hot:
            self._budget[name] -= 1
            entry = self._entries[name]
            out.append([name, entry.status, entry.incarnation])
        return out

    def snapshot(self) -> List[List[Any]]:
        """The full view, for anti-entropy exchanges and bootstraps."""
        return [
            [entry.name, entry.status, entry.incarnation]
            for entry in self._entries.values()
        ]

    def merge_wire(self, entries: Sequence[Sequence[Any]]) -> int:
        """Apply a wire-form rumor batch; returns how many changed us."""
        changed = 0
        for name, status, incarnation in entries:
            if self.apply(name, status, incarnation):
                changed += 1
        if changed:
            self.sim.metrics.inc("membership.rumors_accepted", changed)
        return changed


# ----------------------------------------------------------------------
# Epidemic dissemination


class MembershipGossip:
    """Spreads a :class:`MembershipView` epidemically over the fabric.

    Each round picks ``fanout`` random routable peers and push-pulls
    membership deltas with them (verb ``MSHIP`` — registered on an
    existing endpoint when one is supplied, e.g. a Dynamo node's, so the
    rumors ride the same fabric as the data; otherwise the gossiper owns
    a standalone endpoint). Every :attr:`full_sync_every`-th round sends
    the whole view instead of deltas — the anti-entropy backstop that heals
    arbitrarily aged views after a partition.

    A peer that fails to answer is **suspected** in the local view: the
    dissemination round doubles as the failure probe.
    """

    #: Most deltas one round piggybacks, hottest first.
    delta_limit = 12
    full_sync_every = 4
    policy = MEMBERSHIP_POLICY

    def __init__(
        self,
        view: MembershipView,
        endpoint: Optional[Endpoint] = None,
        network: Optional[Network] = None,
        period: float = 0.5,
        fanout: int = 1,
    ) -> None:
        if endpoint is None and network is None:
            raise SimulationError("membership gossip needs an endpoint or network")
        if fanout < 1:
            raise SimulationError(f"bad gossip fanout {fanout}")
        if period <= 0:
            raise SimulationError(f"bad gossip period {period}")
        self.view = view
        self.sim = view.sim
        self.period = period
        self.fanout = fanout
        if endpoint is None:
            endpoint = Endpoint(network, view.owner)
            endpoint.start()
        self.endpoint = endpoint
        self.endpoint.register("MSHIP", self._handle_gossip)
        self._round = 0
        self.rounds_attempted = 0
        self.rounds_failed = 0

    # ------------------------------------------------------------------
    # Server side

    def _handle_gossip(self, _ep: Endpoint, msg: Any) -> Dict[str, Any]:
        self.view.merge_wire(msg.payload["entries"])
        if msg.payload.get("full"):
            return {"entries": self.view.snapshot(), "full": True}
        return {"entries": self.view.deltas(self.delta_limit)}

    # ------------------------------------------------------------------
    # Client side

    def _peer_candidates(self, include_dead: bool = False) -> List[str]:
        if include_dead:
            # Full-sync rounds gossip at the dead too. A symmetric
            # partition that outlives the suspicion timeout leaves each
            # side believing the other dead — and if rounds only ever
            # target usable peers, the rumor mill partitions itself
            # *permanently*: neither side will ever speak across the
            # healed divide to learn otherwise. Probing believed-dead
            # members on the anti-entropy cadence is what turns a heal
            # into reconvergence (cf. memberlist's gossip-to-the-dead).
            return [
                name for name in self.view.entries() if name != self.view.owner
            ]
        candidates = [
            name for name in self.view.usable_names() if name != self.view.owner
        ]
        if not candidates:
            # Everyone looks dead from here (e.g. a mutually-suspicious
            # two-node view): gossip at *someone* or the rumor mill — and
            # any chance of hearing a refutation — stops for good.
            candidates = self._peer_candidates(include_dead=True)
        return candidates

    def round_once(
        self, force_full: bool = False
    ) -> Generator[Any, Any, int]:
        """One dissemination round; returns rumors accepted from peers."""
        rng = self.sim.rng.stream(f"mship.{self.view.owner}")
        self._round += 1
        full = force_full or (self._round % self.full_sync_every == 0)
        candidates = self._peer_candidates(include_dead=full)
        if not candidates:
            return 0
        picked: List[str] = []
        pool = list(candidates)
        for _ in range(min(self.fanout, len(pool))):
            peer = pool.pop(rng.randrange(len(pool)))
            picked.append(peer)
        accepted = 0
        for peer in picked:
            self.rounds_attempted += 1
            payload = {
                "entries": (
                    self.view.snapshot() if full
                    else self.view.deltas(self.delta_limit)
                ),
            }
            if full:
                payload["full"] = True
            try:
                reply = yield from self.endpoint.call(
                    peer, "MSHIP", payload, policy=self.policy
                )
            except _PROBE_ERRORS:
                # The round is the probe: an unanswered exchange is a
                # reason to doubt the peer — locally, refutably.
                self.rounds_failed += 1
                self.sim.metrics.inc("membership.probe_failures")
                if self.view.suspect(peer):
                    self.sim.trace.emit(
                        self.view.owner, "membership.suspect", node=peer
                    )
                continue
            accepted += self.view.merge_wire(reply["entries"])
        self.sim.metrics.inc("membership.rounds")
        if full:
            self.sim.metrics.inc("membership.full_syncs")
        return accepted

    def run(self, until: float = math.inf) -> None:
        """Start the periodic loop (jittered like the op-gossip loop so
        rounds desynchronize across nodes) on the node's endpoint: a
        crashed member spreads no rumors and suspects nobody, and its
        restart resumes the loop."""
        self.endpoint.spawn("mship", lambda: self._loop(until))

    def _loop(self, until: float) -> Generator[Any, Any, None]:
        rng = self.sim.rng.stream(f"mship.loop.{self.view.owner}")
        for pause in pacing(self.sim, rng, self.period, 0.25, until):
            yield pause
            yield from self.round_once()


def views_converged(views: Sequence[MembershipView]) -> bool:
    """Do all the views agree entry-for-entry? (The chaos scenario's
    post-heal convergence check.)"""
    if not views:
        return True
    reference = views[0].entries()
    return all(view.entries() == reference for view in views[1:])
