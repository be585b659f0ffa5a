"""Cluster wiring and N/R/W client coordination.

The client is the coordinator (as Dynamo allows): a GET asks the key's
preference list and needs R answers; the sibling frontier of everything
returned is the result, with a merged *context* clock. A PUT increments
the coordinator's entry on the context and needs W stores; when intended
owners are unreachable the write lands on fallback nodes with a hint —
availability over consistency, always accept the PUT.

Versions travel by reference: a PUT's targets share the one
``VersionedValue`` the client built, and every receiver stores the
object it was sent.

Replication is the nodes' own protocol (:mod:`.node`): the cluster
lists each pair's shared arcs and drives the rounds.

The ring is elastic: :meth:`DynamoCluster.join` splices a new node in
and bootstraps exactly the key ranges it now owns from their previous
owners (range-scoped Merkle transfer); :meth:`DynamoCluster.decommission`
routes writes away first, then streams the leaving node's ranges to
their new owners before it departs. Both reshape the ring first, and
every hinted-handoff and intended-owner check consults the *current*
ring — so an acked write is never stranded mid-reshape.

Every *routing* decision asks the observer's own view:
:data:`NO_OPINION` until :meth:`DynamoCluster.attach_gossip_membership`
gives each node a local, possibly-stale ``MembershipView``. Repair by
exchange (Merkle rounds, join and decommission transfers, the straggler
sweep) learns of a dead peer from its own traffic. A client's preference
walk, hint delivery and the push round (which also peeks at its peers'
stores) still ask the fabric; the driver reads ground truth through
:meth:`DynamoCluster.alive`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.gossip_membership import MembershipGossip, MembershipView
from repro.errors import CrashedError, QuicksandError, SimulationError, TimeoutError_
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import Event
from repro.sim.scheduler import Simulator
from repro.dynamo.node import _PEER_ERRORS, REPLICATION_POLICY, DynamoNode
from repro.dynamo.ring import Arc, HashRing, RingPositions, moved_ranges
from repro.dynamo.versions import Frontier, VectorClock, VersionedValue, prune_dominated

#: Client scatter/gather traffic: the quorum machinery is the real retry
#: layer, so each leg gets one fast retry and gives up (sloppy quorum
#: falls back to hinted handoff instead of waiting).
CLIENT_POLICY = RetryPolicy(max_attempts=2, timeout=0.05)


class QuorumUnavailable(QuicksandError):
    """Could not gather the required R or W responses."""


@dataclass
class GetResult:
    """What a GET hands the application: sibling values + merged context."""

    siblings: List[VersionedValue]
    context: VectorClock

    @property
    def values(self) -> List[Any]:
        return [s.value for s in self.siblings]

    @property
    def conflicted(self) -> bool:
        return len(self.siblings) > 1


class _NoOpinion:
    """The view of an observer that hears no rumors (a node before
    :meth:`DynamoCluster.attach_gossip_membership`, a client co-located
    with no node): shared, stateless, instantly converged because it
    believes nothing — every name is usable and reachability decides."""

    @staticmethod
    def is_usable(_name: str) -> bool:
        return True


NO_OPINION = _NoOpinion()


class DynamoCluster:
    """N storage nodes on one fabric, plus client factories."""

    #: Link latency of the flat fabric built when no network is given.
    message_latency = 0.001
    #: What :meth:`attach_gossip_membership` gives each node's gossiper.
    gossip_period = 0.25
    gossip_fanout = 2

    def __init__(
        self,
        num_nodes: int = 5,
        n: int = 3,
        r: int = 2,
        w: int = 2,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        hinted_handoff: bool = True,
        snapshot_cadence: Optional[float] = None,
        network: Optional[Network] = None,
    ) -> None:
        if not 1 <= r <= n or not 1 <= w <= n or n > num_nodes:
            raise SimulationError(f"bad quorum config N={n} R={r} W={w}")
        self.sim = sim or Simulator(seed=seed)
        if network is not None and network.sim is not self.sim:
            raise SimulationError("network belongs to a different simulator")
        # A caller-supplied network (e.g. a multi-site TopologyNetwork)
        # lets the ring share one fabric with other subsystems;
        # message_latency only shapes the fallback flat fabric.
        self.network = network or Network(
            self.sim,
            default_link=LinkConfig(latency=FixedLatency(self.message_latency)),
        )
        self.n, self.r, self.w = n, r, w
        self.hinted_handoff = hinted_handoff
        self.snapshot_cadence = snapshot_cadence
        names = [f"node{i}" for i in range(num_nodes)]
        self.ring = HashRing(names, vnodes=16)
        # Ring position of every stored key a scan has met, one memo for
        # all nodes. Filled by the scans, never by store_version: traffic
        # that is never scanned must not pay for an index it never reads.
        self._positions = RingPositions()
        self.nodes: Dict[str, DynamoNode] = {
            name: DynamoNode(self.sim, self.network, name, self.ring,
                             self._positions, n)
            for name in names
        }
        if snapshot_cadence is not None:
            for node in self.nodes.values():
                node.enable_snapshots(snapshot_cadence)
        # (a, b) -> the arcs both own, for the current ring state.
        self._pair_arcs: Dict[Tuple[str, str], List[Arc]] = {}
        # Gossip-driven membership (opt-in via attach_gossip_membership):
        # a per-node MembershipView plus its epidemic disseminator, built
        # under the remembered settings. Anti-entropy and view_of clients
        # consult each node's LOCAL view; without one, NO_OPINION.
        self.views: Dict[str, MembershipView] = {}
        self.membership_gossips: Dict[str, MembershipGossip] = {}
        self._gossip_settings: Dict[str, Any] = {}
        self._client_ids = itertools.count(1)

    def client(
        self, name: Optional[str] = None, view_of: Optional[str] = None
    ) -> "DynamoClient":
        """A coordinator client. ``view_of`` names a node whose local
        gossip view the client routes by (the coordinator is co-located
        with that node, §4.2-style); without one the client holds no
        opinion and routes by reachability alone."""
        return DynamoClient(
            self, name or f"dynclient{next(self._client_ids)}",
            view=self.view_of(view_of) if view_of else NO_OPINION,
        )

    # ------------------------------------------------------------------
    # Gossip-driven membership

    def attach_gossip_membership(self, suspicion_timeout: float = 1.5) -> None:
        """Give every node a local :class:`MembershipView` disseminated
        epidemically over the nodes' own endpoints. From here on, who is
        alive is a *rumor*: detectors and failed gossip probes suspect
        into local views, refutations outrank accusations, and no node
        can consult the cluster-object oracle on behalf of another. Each
        gossiper runs every :attr:`gossip_period` to :attr:`gossip_fanout`
        peers. The ring is fixed from here on: :meth:`join` and
        :meth:`decommission` refuse a gossiping cluster."""
        if self.membership_gossips:
            raise SimulationError("gossip membership already attached")
        self._gossip_settings = {
            "view": dict(suspicion_timeout=suspicion_timeout),
            "gossip": dict(period=self.gossip_period, fanout=self.gossip_fanout),
        }
        names = list(self.nodes)
        for name in names:
            self._attach_gossiper(name, names)

    def _attach_gossiper(
        self, name: str, known: Sequence[str]
    ) -> MembershipGossip:
        """One node's local view, seeded with the members it ``known``
        of at birth, plus its disseminator, under the settings
        :meth:`attach_gossip_membership` took."""
        view = MembershipView(name, self.sim, **self._gossip_settings["view"])
        view.seed(known)
        self.views[name] = view
        gossip = self.membership_gossips[name] = MembershipGossip(
            view, endpoint=self.nodes[name].endpoint,
            **self._gossip_settings["gossip"],
        )
        return gossip

    def start_membership_gossip(self, until: float = math.inf) -> None:
        if not self.membership_gossips:
            raise SimulationError("attach_gossip_membership first")
        for gossip in self.membership_gossips.values():
            gossip.run(until)

    def view_of(self, name: str) -> MembershipView:
        """``name``'s local gossip view; a domain error before
        :meth:`attach_gossip_membership` or for an unknown node."""
        if name not in self.views:
            raise SimulationError(f"no gossip membership view for {name!r}")
        return self.views[name]

    def _usable_by(self, observer: str, target: str) -> bool:
        """Liveness as ``observer`` believes it: its local gossip view
        (possibly stale, possibly wrong), or no opinion at all."""
        return self.views.get(observer, NO_OPINION).is_usable(target)

    def alive(self, node_name: str) -> bool:
        """Ground truth, for the driver only (experiments, the harness,
        the push round): the node exists and its endpoint is on the
        fabric — however it was crashed. Routing asks a view instead."""
        return node_name in self.nodes and self.network.is_attached(node_name)

    def _node(self, node_name: str) -> DynamoNode:
        if node_name not in self.nodes:
            raise SimulationError(
                f"unknown node {node_name!r} (have {sorted(self.nodes)})"
            )
        return self.nodes[node_name]

    def crash(self, node_name: str) -> None:
        self._node(node_name).crash()

    def restart(self, node_name: str) -> None:
        self._node(node_name).restart()

    def cold_crash(self, node_name: str) -> int:
        """Crash a node *losing its store* (vs :meth:`crash`, which models
        the store as durable). Returns versions lost."""
        return self._node(node_name).cold_crash()

    def cold_restart(self, node_name: str) -> Generator[Any, Any, Dict[str, Any]]:
        """Rejoin a cold-crashed node: snapshot seed, then the caller runs
        handoff + Merkle rounds to close the remaining diff."""
        return (yield from self._node(node_name).cold_restart())

    def run_handoff_round(self) -> Generator[Any, Any, int]:
        """Drive one hint-delivery pass on every node; returns total
        delivered. Experiments call this after partitions heal."""
        total = 0
        for node in self.nodes.values():
            if node.endpoint.serving and node.hints:
                delivered = yield from node.deliver_hints()
                total += delivered
        return total

    def run_anti_entropy_round(self) -> Generator[Any, Any, int]:
        """Replica synchronization (Dynamo's Merkle-tree sync, modelled at
        version granularity): every node pushes each key's sibling
        frontier to that key's other intended owners. Returns versions
        pushed. Idempotent once converged."""
        pushed = 0
        for node in list(self.nodes.values()):
            if not self.alive(node.name):
                continue
            # Peers that already failed this round. A fault overlay (say,
            # a WAN cut — reachable() only sees hard partitions) turns
            # every push to a cut-off peer into a timeout; without this
            # skip set the node burns the retry policy's full budget per
            # key × peer and starves its *intra-site* peers of the round.
            unresponsive: set = set()
            # owner -> may this node push to it. Nothing else runs between
            # two of this round's yields, so a verdict holds until the
            # next push has been waited for.
            pushable: Dict[str, bool] = {}
            try:
                for key, versions in list(node.store.items()):
                    clocks = [version.clock.counters for version in versions]
                    for owner in node.owners(key):
                        verdict = pushable.get(owner)
                        if verdict is None:
                            # The pusher's own view may say this owner is
                            # dead or gone — it acts on its local (maybe
                            # stale) opinion; anti-entropy heals the gap
                            # once the rumor mill catches up.
                            verdict = pushable[owner] = (
                                owner != node.name
                                and owner in self.nodes
                                and owner not in unresponsive
                                and self._usable_by(node.name, owner)
                                and self.network.reachable(node.name, owner)
                            )
                        if not verdict:
                            continue
                        theirs = self.nodes[owner].store.get(key, ())
                        if [held.clock.counters for held in theirs] == clocks:
                            continue  # same frontier: nothing to push
                        peer_clocks = [held.clock for held in theirs]
                        try:
                            for version in versions:
                                if any(pc.descends(version.clock)
                                       for pc in peer_clocks):
                                    continue
                                pushable.clear()
                                yield from node.endpoint.call(
                                    owner, "PUT", {"key": key, "version": version},
                                    policy=REPLICATION_POLICY,
                                )
                                pushed += 1
                        except _PEER_ERRORS:
                            # One peer failing mid-round (e.g. crashing
                            # between the liveness check and the call)
                            # must not abort the whole round: skip it,
                            # count it, keep going with the others.
                            unresponsive.add(owner)
                            self.sim.metrics.inc("dynamo.anti_entropy_errors")
            except (CrashedError, SimulationError):
                # The *source* node died under us: its remaining pushes
                # are moot, but other nodes still get their turn.
                self.sim.metrics.inc("dynamo.anti_entropy_errors")
        if pushed:
            self.sim.metrics.inc("dynamo.anti_entropy_pushes", pushed)
        return pushed

    # ------------------------------------------------------------------
    # Merkle-digest anti-entropy (per-arc, message-efficient)

    def _reshaped(self) -> None:
        """The ring changed: pair scopes are listed afresh, and every
        built index forgets the digests of arcs that are gone."""
        self._pair_arcs.clear()
        for node in self.nodes.values():
            node.reshaped()

    def _shared_arcs(self, a_name: str, b_name: str) -> List[Arc]:
        """The arcs both nodes (``a_name < b_name``) are intended owners
        of, listed for every pair at once per ring state."""
        if not self._pair_arcs:
            for arc in self.ring.arcs():
                owners = sorted(self.ring.owners_at(arc[0], self.n))
                for pair in itertools.combinations(owners, 2):
                    self._pair_arcs.setdefault(pair, []).append(arc)
        return self._pair_arcs.get((a_name, b_name), [])

    def run_merkle_round(self) -> Generator[Any, Any, Dict[str, int]]:
        """One digest-first anti-entropy pass over every node pair.

        Returns message accounting: digest exchanges vs sync payloads —
        once converged, a round costs only the digest messages.
        ``versions_moved`` counts wire entries, both directions."""
        stats = {"digest_msgs": 0, "sync_msgs": 0, "versions_moved": 0}
        names = sorted(self.nodes)
        members = dict(self.nodes)  # one that leaves mid-round stops serving
        # A silent peer is skipped for the rest of the round once its
        # initiator has had an answer; before that, the initiator may be
        # the one cut off, so it pays its timeouts and blames no one.
        unresponsive: set = set()
        for i, a_name in enumerate(names):
            node = members[a_name]
            answered = False
            for b_name in names[i + 1:]:
                if a_name in unresponsive or b_name in unresponsive:
                    continue
                # The initiator judges its peer by its own local view.
                if not self._usable_by(a_name, b_name):
                    continue
                facts = yield from node.exchange(
                    b_name, self._shared_arcs(a_name, b_name)
                )
                answered = answered or facts["digest_msgs"] > 0
                if facts["peer_failed"] and answered:
                    unresponsive.add(b_name)
                stats["digest_msgs"] += facts["digest_msgs"]
                stats["sync_msgs"] += facts["sync_msgs"]
                stats["versions_moved"] += facts["shipped"] + facts["kept"]
        self.sim.metrics.inc("dynamo.merkle_digest_msgs", stats["digest_msgs"])
        self.sim.metrics.inc("dynamo.merkle_sync_msgs", stats["sync_msgs"])
        return stats

    def converged_on(self, key: str) -> bool:
        """Do all live intended owners hold the same sibling frontier?

        ``False`` when *no* intended owner is alive: with zero replicas
        reachable nothing can be said about the key, and "vacuously
        converged" would let a reconvergence invariant pass spuriously
        during a heavy failure window.
        """
        owners = [o for o in self.ring.intended_owners(key, self.n) if self.alive(o)]
        if not owners:
            return False
        frontiers = [
            frozenset(v.clock for v in self.nodes[owner].versions_of(key))
            for owner in owners
        ]
        return len(set(frontiers)) <= 1

    # ------------------------------------------------------------------
    # Elastic membership: join / decommission with range rebalancing

    def join(self, node_name: str) -> Generator[Any, Any, Dict[str, int]]:
        """Splice a new node into the ring and bootstrap its ranges.

        The ring is updated *first*, so every subsequent
        PUT's intended-owner and hinted-handoff checks see the new
        topology — then the joiner pulls exactly the arcs it gained from
        their previous owners via a range-scoped Merkle transfer. Until a
        range lands, its old owners still hold every acked write; reads
        meanwhile quorum across R replicas, so the cluster never depends
        on the joiner alone. Returns transfer accounting.
        """
        if self.membership_gossips:
            raise SimulationError(
                f"cannot join {node_name!r}: gossip membership is attached"
            )
        if node_name in self.nodes:
            raise SimulationError(f"node {node_name!r} already in the cluster")
        node = DynamoNode(self.sim, self.network, node_name, self.ring,
                          self._positions, self.n)
        if self.snapshot_cadence is not None:
            node.enable_snapshots(self.snapshot_cadence)
        self.nodes[node_name] = node
        before = self.ring.clone()
        self.ring.add_node(node_name)
        self._reshaped()
        moved = moved_ranges(before, self.ring, self.n)
        self.sim.metrics.inc("dynamo.ring_joins")
        self.sim.trace.emit(
            node_name, "ring.join", moved_ranges=len(moved),
            nodes=len(self.nodes),
        )
        # Pull each gained arc from every previous owner (the first source
        # ships the bulk; Merkle digests make the rest near-free once the
        # range agrees). A source that does not answer is counted, once.
        pulls: Dict[str, List[Arc]] = {}
        for arc in moved:
            if node_name not in arc.gained:
                continue
            for source in arc.old_owners:
                if source == node_name or source not in self.nodes:
                    continue
                pulls.setdefault(source, []).append((arc.start, arc.end))
        stats = {"moved_ranges": len(moved), "versions_moved": 0,
                 "digest_msgs": 0, "sync_msgs": 0}
        for source, ranges in pulls.items():
            yield from self._transfer(node, source, ranges, stats)
        self.sim.metrics.inc(
            "dynamo.rebalance_versions_moved", stats["versions_moved"]
        )
        return stats

    def decommission(self, node_name: str) -> Generator[Any, Any, Dict[str, int]]:
        """Remove a node from the ring, streaming its ranges out first.

        The ring drops the node *before* the drain, so new
        writes route to the arcs' successor owners while the leaver
        ships what it holds: hints first, then a range-scoped Merkle
        push of every arc that gained an owner, then a straggler sweep:
        one exchange with each current owner over the arcs that hold the
        leaver's keys. A peer that fails to answer the push is skipped by
        the sweep. A dead node can be decommissioned too — its arcs' data
        survives on the other W-1 replicas and anti-entropy heals the
        copy count.
        """
        if self.membership_gossips:
            raise SimulationError(
                f"cannot decommission {node_name!r}: gossip membership is attached"
            )
        node = self._node(node_name)
        if len(self.nodes) - 1 < self.n:
            raise SimulationError(
                f"cannot decommission below N={self.n} nodes"
            )
        before = self.ring.clone()
        self.ring.remove_node(node_name)
        self._reshaped()
        moved = moved_ranges(before, self.ring, self.n)
        self.sim.metrics.inc("dynamo.ring_decommissions")
        self.sim.trace.emit(
            node_name, "ring.decommission", moved_ranges=len(moved),
            nodes=len(self.nodes) - 1,
        )
        stats = {"moved_ranges": len(moved), "versions_moved": 0,
                 "digest_msgs": 0, "sync_msgs": 0, "leftover_pushes": 0}
        if node.endpoint.serving:
            yield from node.deliver_hints()
            pushes: Dict[str, List[Arc]] = {}
            for arc in moved:
                if node_name not in arc.old_owners:
                    continue
                for dest in arc.gained:
                    if dest in self.nodes:
                        pushes.setdefault(dest, []).append((arc.start, arc.end))
            unresponsive = set()
            for dest, ranges in pushes.items():
                if (yield from self._transfer(node, dest, ranges, stats)):
                    unresponsive.add(dest)
            # Straggler sweep: hints that would not deliver, stale copies
            # from older reshapes — whatever a current owner lacks.
            for owner, arcs in node.leftover_arcs().items():
                if owner not in unresponsive:
                    facts = yield from node.exchange(owner, arcs)
                    stats["leftover_pushes"] += facts["integrated"]
        node.endpoint.stop("decommissioned")
        del self.nodes[node_name]
        self.sim.metrics.inc(
            "dynamo.rebalance_versions_moved",
            stats["versions_moved"] + stats["leftover_pushes"],
        )
        return stats

    def _transfer(
        self, node: DynamoNode, peer: str, ranges: Sequence[Arc],
        stats: Dict[str, int],
    ) -> Generator[Any, Any, bool]:
        """A join's pull or a decommission's push: one exchange over
        ``ranges``, added to ``stats``. Returns whether the peer failed."""
        facts = yield from node.transfer(peer, ranges)
        # Versions that changed someone's state, not wire payloads.
        stats["versions_moved"] += facts["integrated"] + facts["fresh"]
        stats["digest_msgs"] += facts["digest_msgs"]
        stats["sync_msgs"] += facts["sync_msgs"]
        return facts["peer_failed"]


class DynamoClient:
    """A coordinator endpoint implementing GET/PUT with sloppy quorum."""

    def __init__(
        self,
        cluster: DynamoCluster,
        name: str,
        view: Any = NO_OPINION,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        # The coordinator skips peers its view holds dead — even if
        # they are reachable. A stale view therefore degrades to sloppy
        # quorum + hinted handoff, never to a stuck request.
        self.view = view
        self.endpoint = Endpoint(cluster.network, name)
        self.endpoint.start()
        # Per-key high-water mark of this client's own clock component. A
        # stale GET (sloppy quorum during a partition) can hand back a
        # context that predates our own last write; naively incrementing
        # it would mint a clock we already used — and two values under
        # one clock collapse arbitrarily at the store. A client always
        # knows how often it wrote, so it never reuses a counter.
        self._write_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def get(self, key: str) -> Generator[Any, Any, GetResult]:
        """Read R replicas; returns the sibling frontier and its context.

        Raises :class:`QuorumUnavailable` when fewer than R nodes answer.
        """
        targets = self.cluster.ring.preference_list(
            key, self.cluster.n, alive=self._can_reach
        )
        payload = {"key": key}
        responses = yield from self._scatter_pairs(
            [(target, payload) for target in targets], "GET"
        )
        if len(responses) < self.cluster.r:
            raise QuorumUnavailable(f"GET {key!r}: {len(responses)} < R={self.cluster.r}")
        # Each reply is that replica's stored frontier, shared, not copied.
        held = [(target, reply["versions"]) for target, reply in responses]
        siblings = prune_dominated(
            version for _target, frontier in held for version in frontier
        )
        context = siblings[0].clock if siblings else VectorClock()
        for sibling in siblings[1:]:
            context = context.merge(sibling.clock)
        if len(siblings) > 1:
            self.sim.metrics.inc("dynamo.sibling_gets")
        self._read_repair(key, siblings, held)
        return GetResult(siblings=siblings, context=context)

    def _read_repair(
        self,
        key: str,
        siblings: List[VersionedValue],
        held: List[Tuple[str, Frontier]],
    ) -> None:
        """Push the sibling frontier back to any responding node that is
        missing part of it (fire-and-forget, like Dynamo's read repair)."""
        frontier = [sibling.clock.counters for sibling in siblings]
        for target, versions in held:
            if [version.clock.counters for version in versions] == frontier:
                continue  # holds exactly the frontier: nothing to hash
            have = {version.clock for version in versions}
            for sibling in siblings:
                if sibling.clock not in have:
                    self.endpoint.cast(
                        target, "PUT", {"key": key, "version": sibling},
                    )
                    self.sim.metrics.inc("dynamo.read_repairs")

    def put(
        self, key: str, value: Any, context: Optional[VectorClock] = None
    ) -> Generator[Any, Any, VectorClock]:
        """Write with a context clock (from the preceding GET); returns the
        new version's clock. Needs W stores; with hinted handoff enabled,
        fallback nodes count toward W."""
        base = context or VectorClock()
        seq = max(self._write_seq.get(key, 0), base.counters.get(self.name, 0)) + 1
        self._write_seq[key] = seq
        clock = VectorClock({**base.counters, self.name: seq})
        intended = self.cluster.ring.intended_owners(key, self.cluster.n)
        if self.cluster.hinted_handoff:
            targets = self.cluster.ring.preference_list(
                key, self.cluster.n, alive=self._can_reach
            )
        else:
            targets = [t for t in intended if self._can_reach(t)]
        # Pair each fallback target with one of the intended owners it is
        # standing in for, so its hint can be delivered home later.
        hint_map = {} if targets == intended else dict(zip(
            (t for t in targets if t not in intended),
            (node for node in intended if node not in targets),
        ))
        # One version per write: every target's payload shares it.
        version = VersionedValue(value, clock)
        payloads = []
        for target in targets:
            payload = {"key": key, "version": version}
            if target in hint_map:
                payload["hint_for"] = hint_map[target]
            payloads.append((target, payload))
        responses = yield from self._scatter_pairs(payloads, "PUT")
        if len(responses) < self.cluster.w:
            raise QuorumUnavailable(f"PUT {key!r}: {len(responses)} < W={self.cluster.w}")
        self.sim.metrics.inc("dynamo.puts")
        return clock

    # ------------------------------------------------------------------

    def _can_reach(self, node_name: str) -> bool:
        """This coordinator's failure-detector view: a node is usable if
        our view does not believe it dead *and* it is up on our side
        of any partition."""
        return self.view.is_usable(node_name) and self.cluster.network.reachable(
            self.name, node_name
        )

    def _scatter_pairs(
        self, pairs: List, verb: str
    ) -> Generator[Any, Any, List]:
        """Call all targets in parallel, one process each; returns
        (target, reply-payload) for each successful reply once every
        call has settled. A replica that timed out or answered with an
        error is dropped; any other failure (our own endpoint dying
        under us) is raised, the first in pair order."""
        if not pairs:
            return []
        settled = Event(self.sim, ("%s.%s.settled", self.name, verb))
        waiting = len(pairs)

        def one_settled(_done: Event) -> None:
            nonlocal waiting
            waiting -= 1
            if not waiting:
                settled.trigger()

        spawn, call = self.sim.spawn, self.endpoint.call
        calls = []
        for target, payload in pairs:
            proc = spawn(
                call(target, verb, payload, policy=CLIENT_POLICY),
                name=("%s.%s.%s", self.name, verb, target),
            )
            proc.done.add_callback(one_settled)
            calls.append((target, proc.done))
        yield settled
        responses = []
        for target, done in calls:
            failure = done.exception
            if failure is None:
                responses.append((target, done.value))
            elif not isinstance(failure, (TimeoutError_, RpcError)):
                raise failure
        return responses
