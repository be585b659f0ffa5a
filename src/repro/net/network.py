"""The network: named endpoints, links, loss, duplication, partitions.

Delivery pipeline for ``send``:

1. If the source or destination is detached (crashed), the message is
   dropped silently — a dead component neither sends nor receives.
2. If a partition separates the two endpoints, the message is dropped.
   Partitions apply at *delivery* time too: a message in flight when the
   partition cuts is lost, matching the fail-fast model where the network
   offers no guarantees across the cut.
3. The link's loss probability, then each fault overlay's loss and
   duplication, are sampled.
4. A latency sample schedules delivery to the destination's *sink*.

A drop's trace record (``drop.unreachable``, ``drop.loss``,
``drop.fault``, ``drop.in_flight``) holds the message's one-line
``repr``, not the message: the dropped payload is freed at once,
however long the record lives.

Every attached name has one sink, a callable taking the message, and
``_deliver`` is its only caller. ``attach(name, deliver=cb)`` registers
``cb`` — how the RPC layer (:class:`~repro.net.rpc.Endpoint`) receives: in
the delivery step itself, with no queue and no receive loop in between.
``attach(name)`` alone builds a :class:`~repro.sim.sync.Mailbox` and
registers its ``put``, for a process that wants to ``yield
mailbox.get()``.

With nothing detached, nothing partitioned, no fault overlay and a
loss-free link — every non-chaos run — ``send`` and ``_deliver`` are one
membership test, one latency sample and one ``schedule`` each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import Message
from repro.sim.scheduler import Simulator
from repro.sim.sync import Mailbox


@dataclass
class LinkConfig:
    """Per-link delivery behaviour."""

    latency: LatencyModel = field(default_factory=lambda: FixedLatency(0.001))
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise SimulationError(f"bad loss probability {self.loss_probability}")


@dataclass
class NetFault:
    """A transient fault overlay applied on top of the link configs.

    Injected/cleared at runtime (the chaos layer schedules the window);
    ``src``/``dst`` of None match every endpoint. Sampling happens after
    the link's own loss, from the same ``net`` stream, so a
    run replays bit-for-bit under its seed.
    """

    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    extra_delay: float = 0.0
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise SimulationError(f"bad fault loss {self.loss_probability}")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise SimulationError(f"bad fault duplicate {self.duplicate_probability}")
        if self.extra_delay < 0:
            raise SimulationError(f"negative fault delay {self.extra_delay}")

    def applies_to(self, src: str, dst: str) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


class Network:
    """Message fabric connecting named endpoints on one simulator."""

    def __init__(self, sim: Simulator, default_link: Optional[LinkConfig] = None) -> None:
        self.sim = sim
        self.default_link = default_link or LinkConfig()
        #: name -> where ``_deliver`` hands its messages (kept across a
        #: detach, so a detached name is still a *known* one).
        self._sinks: Dict[str, Callable[[Message], None]] = {}
        #: The names attached without a callback, and the mailbox built
        #: for each.
        self._mailboxes: Dict[str, Mailbox] = {}
        self._links: Dict[Tuple[str, str], LinkConfig] = {}
        self._detached: Set[str] = set()
        self._groups: Optional[List[Set[str]]] = None
        self._faults: List[NetFault] = []
        self._rng = sim.rng.stream("net")
        # Hot counters, resolved once instead of per-send dict lookups.
        # Created lazily so a Network that never sends leaves the metrics
        # registry exactly as empty as it used to.
        self._ctr_sent: Optional[Any] = None
        self._ctr_delivered: Optional[Any] = None

    # ------------------------------------------------------------------
    # Topology

    def attach(
        self, name: str, deliver: Optional[Callable[[Message], None]] = None
    ) -> Optional[Mailbox]:
        """Register an endpoint. With ``deliver``, every message for
        ``name`` is handed to it in its delivery step; without, a fresh
        (empty) :class:`Mailbox` is built to receive them and returned.
        Re-attach revives a detached endpoint."""
        if name in self._sinks and name not in self._detached:
            raise SimulationError(f"endpoint {name!r} already attached")
        self._detached.discard(name)
        mailbox = None
        if deliver is None:
            mailbox = self._mailboxes[name] = Mailbox(self.sim, name=f"net:{name}")
            deliver = mailbox.put
        else:
            self._mailboxes.pop(name, None)
        self._sinks[name] = deliver
        return mailbox

    def detach(self, name: str) -> None:
        """Take an endpoint off the network (crash): nothing more is
        delivered to it. A mailbox's queued messages are dropped and
        blocked receivers stay blocked forever (the node process is
        expected to be interrupted separately)."""
        self._require(name)
        self._detached.add(name)
        if name in self._mailboxes:
            self._mailboxes[name].drain()

    def is_attached(self, name: str) -> bool:
        return name in self._sinks and name not in self._detached

    @property
    def endpoint_count(self) -> int:
        """How many names have ever attached (detached ones included)."""
        return len(self._sinks)

    def mailbox(self, name: str) -> Mailbox:
        """The mailbox of an endpoint attached without a callback."""
        self._require(name)
        if name not in self._mailboxes:
            raise SimulationError(f"endpoint {name!r} receives through a callback")
        return self._mailboxes[name]

    def set_link(self, src: str, dst: str, config: LinkConfig) -> None:
        """Override delivery behaviour for the link, both directions."""
        self._links[(src, dst)] = config
        self._links[(dst, src)] = config

    # ------------------------------------------------------------------
    # Partitions

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network: only endpoints in the same group communicate.

        Endpoints not named in any group form an implicit final group.
        """
        self._groups = [set(g) for g in groups]

    def heal(self) -> None:
        """Remove the partition."""
        self._groups = None

    @property
    def partitioned(self) -> bool:
        return self._groups is not None

    # ------------------------------------------------------------------
    # Fault overlay

    def inject_fault(self, fault: NetFault) -> NetFault:
        """Activate a fault overlay; returns it as the clearing token."""
        self._faults.append(fault)
        self.sim.trace.emit(
            "net", "fault.inject",
            loss=fault.loss_probability, duplicate=fault.duplicate_probability,
            extra_delay=fault.extra_delay, src=fault.src, dst=fault.dst,
        )
        return fault

    def clear_fault(self, fault: NetFault) -> None:
        """Deactivate a previously injected fault (no-op if already gone)."""
        if fault in self._faults:
            self._faults.remove(fault)
            self.sim.trace.emit("net", "fault.clear", src=fault.src, dst=fault.dst)

    def clear_all_faults(self) -> None:
        while self._faults:
            self.clear_fault(self._faults[-1])

    @property
    def active_faults(self) -> Tuple[NetFault, ...]:
        return tuple(self._faults)

    def reachable(self, src: str, dst: str) -> bool:
        """Can a message travel src -> dst right now?"""
        detached = self._detached
        if detached and (src in detached or dst in detached):
            return False
        sinks = self._sinks
        if src not in sinks or dst not in sinks:
            return False
        if self._groups is None:
            return True
        src_group = self._group_of(src)
        dst_group = self._group_of(dst)
        return src_group == dst_group

    def _group_of(self, name: str) -> int:
        for index, group in enumerate(self._groups or []):
            if name in group:
                return index
        return -1  # implicit remainder group

    # ------------------------------------------------------------------
    # Delivery

    def send(self, msg: Message) -> bool:
        """Inject a message. Returns True if it was put in flight (it may
        still be lost to a partition cut or crash before delivery)."""
        src = msg.src
        dst = msg.dst
        sinks = self._sinks
        # With nothing detached or partitioned and both names known the
        # answer is yes, and ``reachable`` would only say so again.
        if (
            self._detached or self._groups is not None
            or src not in sinks or dst not in sinks
        ) and not self.reachable(src, dst):
            self.sim.trace.emit("net", "drop.unreachable", msg=repr(msg))
            self.sim.metrics.inc("net.dropped")
            return False
        links = self._links
        config = links.get((src, dst), self.default_link) if links else self.default_link
        if not self._faults and not config.loss_probability:
            # Fast path: no loss, no fault overlay — the steady-state
            # configuration for every non-chaos run. One latency sample,
            # one schedule; skips the overlay scan and copy loop while
            # drawing exactly the RNG samples the general path would
            # (none of its probability draws happen when disabled).
            self.sim.schedule(
                self._transit_delay(msg, config), self._deliver, msg
            )
        else:
            if config.loss_probability and self._rng.random() < config.loss_probability:
                self.sim.trace.emit("net", "drop.loss", msg=repr(msg))
                self.sim.metrics.inc("net.dropped")
                return False
            copies = 1
            extra_delay = 0.0
            for fault in self._faults:
                if not fault.applies_to(src, dst):
                    continue
                if fault.loss_probability and self._rng.random() < fault.loss_probability:
                    self.sim.trace.emit("net", "drop.fault", msg=repr(msg))
                    self.sim.metrics.inc("net.dropped")
                    self.sim.metrics.inc("net.fault_dropped")
                    return False
                if (
                    fault.duplicate_probability
                    and self._rng.random() < fault.duplicate_probability
                ):
                    copies += 1
                    self.sim.metrics.inc("net.duplicated")
                extra_delay += fault.extra_delay
            for _ in range(copies):
                delay = self._transit_delay(msg, config) + extra_delay
                self.sim.schedule(delay, self._deliver, msg)
        ctr = self._ctr_sent
        if ctr is None:
            ctr = self._ctr_sent = self.sim.metrics.counter("net.sent")
        ctr.value += 1.0
        return True

    def _transit_delay(self, msg: Message, config: LinkConfig) -> float:
        """One delivery's transit time. The single seam subclasses override
        to route latency differently (site-aware topologies); the base
        fabric draws exactly one sample from the link's latency model, so
        overriding it cannot perturb the base class's RNG stream."""
        return config.latency.sample(self._rng)

    def _deliver(self, msg: Message) -> None:
        # Re-check reachability at delivery time: a partition or crash that
        # happened while the message was in flight loses it.
        # (Both names were known at send time and are never forgotten.)
        if (self._detached or self._groups is not None) and not self.reachable(
            msg.src, msg.dst
        ):
            self.sim.trace.emit("net", "drop.in_flight", msg=repr(msg))
            self.sim.metrics.inc("net.dropped")
            return
        ctr = self._ctr_delivered
        if ctr is None:
            ctr = self._ctr_delivered = self.sim.metrics.counter("net.delivered")
        ctr.value += 1.0
        self._sinks[msg.dst](msg)

    def _require(self, name: str) -> None:
        if name not in self._sinks:
            raise SimulationError(f"unknown endpoint {name!r}")
