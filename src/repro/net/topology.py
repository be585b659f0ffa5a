"""Multi-datacenter topology: sites, WAN links, site-wide fault overlays.

The paper's §4 systems live across failure boundaries whose *cost* is
wildly asymmetric: a checkpoint inside one datacenter rides a LAN, a
log-ship batch between datacenters crosses a WAN with real latency, a
bandwidth ceiling, and a habit of cutting entirely. This module makes
that boundary a first-class object:

- :class:`Site` — a named datacenter with an optional LAN latency model
  shared by every endpoint placed in it.
- :class:`WanLink` — latency + an optional bandwidth cap (a FIFO pipe:
  messages queue behind each other when they arrive faster than the pipe
  drains) for one directed site pair.
- :class:`Topology` — the placement map (endpoint → site) plus the WAN
  link every site pair shares. Placement is by name, so higher layers
  (Dynamo nodes, log-ship replicas) need no changes to become
  geo-distributed.
- :class:`TopologyNetwork` — a :class:`~repro.net.network.Network` whose
  transit delay is routed by placement: intra-site messages sample the
  site's LAN model, cross-site messages sample the WAN link (plus any
  queueing the bandwidth cap imposes).
- :class:`SiteFault` — a fault overlay that matches whole site pairs, so
  one injected fault cuts (or degrades) every link between two
  datacenters at once.

A topology with one site — or endpoints never placed — routes every
message exactly as the flat :class:`Network` does: the golden traces for
the single-site scenarios stay byte-for-byte identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import LinkConfig, NetFault, Network
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class Site:
    """One datacenter. ``lan`` is the latency model every intra-site
    message samples; None falls through to the network's per-link config
    (which makes a single-site topology behave exactly like the flat
    fabric)."""

    name: str
    lan: Optional[LatencyModel] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("site needs a name")


@dataclass(frozen=True)
class WanLink:
    """One directed site-pair's WAN behaviour.

    ``bandwidth`` is a message rate (messages per simulated second); when
    set, the pair behaves as a FIFO pipe — each message occupies the pipe
    for ``message_cost / bandwidth`` and later messages wait their turn.
    None means an uncapped link (latency only).
    """

    latency: LatencyModel
    bandwidth: Optional[float] = None
    message_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise SimulationError(f"bad WAN bandwidth {self.bandwidth}")
        if self.message_cost <= 0:
            raise SimulationError(f"bad WAN message cost {self.message_cost}")


class Topology:
    """Sites, endpoint placement, and the WAN link between them."""

    def __init__(
        self,
        sites: Iterable[Site],
        default_wan: Optional[WanLink] = None,
    ) -> None:
        self.sites: Dict[str, Site] = {}
        for site in sites:
            if site.name in self.sites:
                raise SimulationError(f"duplicate site {site.name!r}")
            self.sites[site.name] = site
        if not self.sites:
            raise SimulationError("topology needs at least one site")
        self.default_wan = default_wan
        self._placement: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Placement

    def place(self, endpoint: str, site: str) -> None:
        """Put an endpoint in a site (by name; it need not be attached
        yet). Re-placing moves it."""
        self._require_site(site)
        self._placement[endpoint] = site

    def place_all(self, endpoints: Iterable[str], site: str) -> None:
        for endpoint in endpoints:
            self.place(endpoint, site)

    def site_of(self, endpoint: str) -> Optional[str]:
        """The endpoint's site name, or None if it was never placed
        (unplaced endpoints ride the flat fabric's link configs)."""
        return self._placement.get(endpoint)

    # ------------------------------------------------------------------
    # WAN links

    def wan(self, src_site: str, dst_site: str) -> WanLink:
        self._require_site(src_site)
        self._require_site(dst_site)
        if self.default_wan is None:
            raise SimulationError(
                f"no WAN link {src_site!r} -> {dst_site!r}: topology has no default"
            )
        return self.default_wan

    def site_pairs(self) -> List[Tuple[str, str]]:
        """Every unordered site pair, sorted (for sampled WAN cuts)."""
        names = sorted(self.sites)
        return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]

    def _require_site(self, name: str) -> None:
        if name not in self.sites:
            raise SimulationError(
                f"unknown site {name!r} (have {sorted(self.sites)})"
            )


@dataclass(eq=False)
class SiteFault(NetFault):
    """A fault overlay scoped to a site pair instead of an endpoint pair.

    ``src_site``/``dst_site`` of None match any site, mirroring the
    endpoint wildcards on :class:`NetFault`. Equality is identity (not
    dataclass field equality): two symmetric cut faults share every field
    value, and ``clear_fault`` must remove exactly the one it was handed.
    """

    topology: Optional[Topology] = None
    src_site: Optional[str] = None
    dst_site: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.topology is None:
            raise SimulationError("site fault needs a topology")
        for site in (self.src_site, self.dst_site):
            if site is not None:
                self.topology._require_site(site)

    def applies_to(self, src: str, dst: str) -> bool:
        src_site = self.topology.site_of(src)
        dst_site = self.topology.site_of(dst)
        return (self.src_site is None or src_site == self.src_site) and (
            self.dst_site is None or dst_site == self.dst_site
        )

    # dataclass(eq=False) still inherits NetFault's field equality; pin
    # identity explicitly so clear_fault removes exactly this instance.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def pair(
        cls, topology: Topology, site_a: str, site_b: str, loss: float
    ) -> Tuple["SiteFault", "SiteFault"]:
        """What a WAN cut is: one fault per direction of the site pair,
        a→b first. ``loss`` below 1.0 degrades instead of severs."""
        return tuple(
            cls(loss_probability=loss, topology=topology, src_site=a, dst_site=b)
            for a, b in ((site_a, site_b), (site_b, site_a))
        )


class TopologyNetwork(Network):
    """A network whose transit delay is routed by site placement.

    Everything else — attach/detach, partitions, loss/duplication, fault
    overlays, delivery-time reachability — is inherited unchanged; only
    :meth:`_transit_delay` consults the topology. Intra-site (and
    unplaced-endpoint) messages behave exactly as on the flat fabric when
    the site has no LAN model of its own.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        default_link: Optional[LinkConfig] = None,
    ) -> None:
        super().__init__(sim, default_link=default_link)
        self.topology = topology
        # Per directed site pair: when the bandwidth pipe next frees up.
        self._wan_busy: Dict[Tuple[str, str], float] = {}

    def _transit_delay(self, msg: Message, config: LinkConfig) -> float:
        topo = self.topology
        src_site = topo.site_of(msg.src)
        dst_site = topo.site_of(msg.dst)
        if src_site is None or dst_site is None or src_site == dst_site:
            lan = None if src_site is None else topo.sites[src_site].lan
            if lan is None:
                return config.latency.sample(self._rng)
            return lan.sample(self._rng)
        link = topo.wan(src_site, dst_site)
        delay = link.latency.sample(self._rng)
        if link.bandwidth is not None:
            pair = (src_site, dst_site)
            now = self.sim.now
            transmit = link.message_cost / link.bandwidth
            start = max(now, self._wan_busy.get(pair, now))
            self._wan_busy[pair] = start + transmit
            wait = start - now
            if wait > 0.0:
                self.sim.metrics.observe("net.wan_queue_wait", wait)
            delay += wait + transmit
        self.sim.metrics.inc("net.wan_msgs")
        return delay

    # ------------------------------------------------------------------
    # Site-wide fault convenience (what a WAN cut actually is)

    def cut_sites(
        self, site_a: str, site_b: str, loss: float = 1.0
    ) -> Tuple[SiteFault, SiteFault]:
        """Cut the WAN between two sites (both directions). ``loss`` below
        1.0 degrades instead of severs. Returns the two fault tokens;
        pass them to :meth:`heal_sites` (or ``clear_all_faults``)."""
        faults = SiteFault.pair(self.topology, site_a, site_b, loss)
        for fault in faults:
            self.inject_fault(fault)
        self.sim.trace.emit(
            "net", "wan.cut", site_a=site_a, site_b=site_b, loss=loss
        )
        return faults

    def heal_sites(self, faults: Iterable[SiteFault]) -> None:
        for fault in faults:
            self.clear_fault(fault)
