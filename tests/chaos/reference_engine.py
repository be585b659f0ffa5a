"""Reference model: how a :class:`~repro.chaos.plan.ChaosPlan` was lowered
before episodes lowered themselves — ``repro.chaos.engine`` together with
the two adapter modules only it called, ``repro.cluster.failure`` and
``repro.net.partition``, frozen verbatim from commit 5f7e3d2.

Test-only. ``test_engine_differential.py`` installs sampled plans through
this :class:`ChaosEngine` on one of two twin worlds and through
:class:`repro.chaos.engine.ChaosEngine` on the other, and requires the
same scheduler queue, trace, counters and kernel steps; invalid plans
must raise the same message from both and schedule nothing.

One adaptation, because the same commit deleted the plan's per-kind view
properties: ``plan.crashes`` reads ``plan.of("crash")`` (and so on for the
other four kinds). :class:`ChaosTargets` is the production one, so both
engines are handed the same value. Every statement below is otherwise
the parent's, the three modules concatenated in dependency order.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.chaos.engine import ChaosTargets
from repro.chaos.plan import (
    ChaosPlan,
    DiskFaultEpisode,
    LinkFaultEpisode,
    WanCutEpisode,
)
from repro.errors import SimulationError
from repro.net.network import NetFault, Network
from repro.net.topology import SiteFault, TopologyNetwork
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------------
# repro/cluster/failure.py


@dataclass(frozen=True)
class CrashPlan:
    """One planned outage: ``node`` goes down at ``at`` and (optionally)
    restarts at ``back_at``."""

    node: str
    at: float
    back_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.back_at is not None and self.back_at <= self.at:
            raise SimulationError(f"restart {self.back_at} not after crash {self.at}")


def _accepts_cause(crash_fn: Any) -> bool:
    """Does a crash callable take a cause argument?"""
    try:
        inspect.signature(crash_fn).bind("cause")
    except TypeError:
        return False
    return True


class FailureInjector:
    """Applies crash plans or a random crash/restart process to targets.

    A target is anything with ``crash()``/``restart()`` — a cluster
    :class:`~repro.cluster.node.Node`, a gossip or Dynamo node, or a
    chaos-scenario adapter. ``crash`` is passed a cause string when its
    signature accepts one.
    """

    def __init__(self, sim: Simulator, nodes: Dict[str, Any]) -> None:
        self.sim = sim
        self.nodes = dict(nodes)

    def install(self, plans: List[CrashPlan]) -> None:
        """Schedule deterministic outages."""
        for plan in plans:
            self._node(plan.node)  # validate eagerly
            self.sim.schedule_at(plan.at, self.crash, plan.node, "injected")
            if plan.back_at is not None:
                self.sim.schedule_at(plan.back_at, self.restart, plan.node)

    def crash(self, name: str, cause: str = "injected") -> None:
        """Crash one target now."""
        target = self._node(name)
        if _accepts_cause(target.crash):
            target.crash(cause)
        else:
            target.crash()

    def restart(self, name: str) -> None:
        """Restart one target now."""
        self._node(name).restart()

    def install_random(
        self,
        node_name: str,
        mttf: float,
        mttr: float,
        stream: Optional[str] = None,
    ) -> None:
        """Exponential time-to-failure / time-to-repair process for a node.

        Runs for the life of the simulation (each repair schedules the next
        failure).
        """
        if mttf <= 0 or mttr <= 0:
            raise SimulationError("mttf and mttr must be positive")
        self._node(node_name)
        rng = self.sim.rng.stream(stream or f"failures:{node_name}")

        def schedule_crash() -> None:
            self.sim.schedule(rng.expovariate(1.0 / mttf), do_crash)

        def do_crash() -> None:
            self.crash(node_name, "random")
            self.sim.schedule(rng.expovariate(1.0 / mttr), do_restart)

        def do_restart() -> None:
            self.restart(node_name)
            schedule_crash()

        schedule_crash()

    def _node(self, name: str) -> Any:
        if name not in self.nodes:
            raise SimulationError(f"unknown node {name!r}")
        return self.nodes[name]


# ----------------------------------------------------------------------
# repro/net/partition.py


@dataclass(frozen=True)
class PartitionWindow:
    """One partition episode: ``groups`` holds from ``start`` to ``end``."""

    start: float
    end: float
    groups: Sequence[Sequence[str]]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(f"empty partition window [{self.start}, {self.end}]")


class PartitionSchedule:
    """Installs a list of partition windows onto a network.

    Windows must not overlap (the fabric models one partition at a time).
    """

    def __init__(self, network: Network, windows: Iterable[PartitionWindow]) -> None:
        self.network = network
        self.windows: List[PartitionWindow] = sorted(windows, key=lambda w: w.start)
        for earlier, later in zip(self.windows, self.windows[1:]):
            if later.start < earlier.end:
                raise SimulationError(
                    f"overlapping partition windows at {later.start}"
                )

    def install(self) -> None:
        """Schedule all cut/heal callbacks on the simulator."""
        sim = self.network.sim
        for window in self.windows:
            sim.schedule_at(window.start, self._cut, window)
            sim.schedule_at(window.end, self._heal)

    def _cut(self, window: PartitionWindow) -> None:
        self.network.partition(window.groups)
        self.network.sim.trace.emit(
            "net", "partition.cut", groups=[sorted(g) for g in window.groups]
        )

    def _heal(self) -> None:
        self.network.heal()
        self.network.sim.trace.emit("net", "partition.heal")


def periodic_partitions(
    network: Network,
    groups: Sequence[Sequence[str]],
    period: float,
    duration: float,
    count: int,
    first_start: float = 0.0,
) -> PartitionSchedule:
    """Build ``count`` identical partition windows, one per ``period``."""
    if duration >= period:
        raise SimulationError("partition duration must be shorter than the period")
    windows = [
        PartitionWindow(first_start + i * period, first_start + i * period + duration, groups)
        for i in range(count)
    ]
    return PartitionSchedule(network, windows)


# ----------------------------------------------------------------------
# repro/chaos/engine.py


class ChaosEngine:
    """Installs a plan's episodes as simulator callbacks."""

    def __init__(self, targets: ChaosTargets) -> None:
        self.targets = targets
        self.sim = targets.sim
        self.injector = FailureInjector(self.sim, targets.nodes)
        self.installed: Optional[ChaosPlan] = None

    def install(self, plan: ChaosPlan) -> None:
        """Validate the plan against the targets and schedule everything."""
        if self.installed is not None:
            raise SimulationError("engine already has a plan installed")
        self._validate(plan)
        self.injector.install(
            [CrashPlan(e.node, e.at, e.back_at) for e in plan.of("crash")]
        )
        if plan.of("partition"):
            PartitionSchedule(
                self.targets.network,
                [PartitionWindow(e.start, e.end, e.groups) for e in plan.of("partition")],
            ).install()
        for episode in plan.of("link_fault"):
            self._install_link_fault(episode)
        for episode in plan.of("wan_cut"):
            self._install_wan_cut(episode)
        for episode in plan.of("disk_fault"):
            self._install_disk_fault(episode)
        self.installed = plan
        self.sim.trace.emit("chaos", "plan.installed", episodes=len(plan))

    def restore(self) -> None:
        """Undo every outstanding fault (quiesce): heal the network,
        clear fault overlays, repair disks, restart downed nodes.

        Called by scenarios after the chaos horizon so that invariants
        about *eventual* behaviour (convergence after heal) can be
        checked against a fully-connected world.
        """
        if self.targets.network is not None:
            self.targets.network.heal()
            self.targets.network.clear_all_faults()
        for disk in self.targets.disks.values():
            disk.repair()
            disk.clear_slowdown()
        for name in self.targets.nodes:
            self.injector.restart(name)
        self.sim.trace.emit("chaos", "plan.restored")

    # ------------------------------------------------------------------

    def _validate(self, plan: ChaosPlan) -> None:
        for episode in plan.of("crash"):
            if episode.node not in self.targets.nodes:
                raise SimulationError(f"plan crashes unknown node {episode.node!r}")
        if (plan.of("partition") or plan.of("link_fault")) and self.targets.network is None:
            raise SimulationError("plan needs a network target")
        if plan.of("wan_cut"):
            network = self.targets.network
            if not isinstance(network, TopologyNetwork):
                raise SimulationError(
                    "plan cuts WAN links but the network has no topology"
                )
            for episode in plan.of("wan_cut"):
                for site in (episode.site_a, episode.site_b):
                    if site not in network.topology.sites:
                        raise SimulationError(
                            f"plan cuts unknown site {site!r}"
                        )
        for episode in plan.of("disk_fault"):
            if episode.disk not in self.targets.disks:
                raise SimulationError(f"plan faults unknown disk {episode.disk!r}")

    def _install_link_fault(self, episode: LinkFaultEpisode) -> None:
        fault = NetFault(
            loss_probability=episode.loss,
            duplicate_probability=episode.duplicate,
            extra_delay=episode.extra_delay,
            src=episode.src,
            dst=episode.dst,
        )
        network = self.targets.network
        self.sim.schedule_at(episode.start, network.inject_fault, fault)
        self.sim.schedule_at(episode.end, network.clear_fault, fault)

    def _install_wan_cut(self, episode: WanCutEpisode) -> None:
        """Cut (or degrade) both directions of a site pair for the
        window. Two directional :class:`SiteFault` overlays, injected and
        cleared as a unit; ``restore()``'s ``clear_all_faults`` sweeps
        them up if the window outlives the horizon."""
        network = self.targets.network
        faults = tuple(
            SiteFault(
                loss_probability=episode.loss,
                topology=network.topology,
                src_site=a,
                dst_site=b,
            )
            for a, b in (
                (episode.site_a, episode.site_b),
                (episode.site_b, episode.site_a),
            )
        )
        for fault in faults:
            self.sim.schedule_at(episode.start, network.inject_fault, fault)
            self.sim.schedule_at(episode.end, network.clear_fault, fault)

    def _install_disk_fault(self, episode: DiskFaultEpisode) -> None:
        disk = self.targets.disks[episode.disk]
        if episode.slow_factor is not None:
            self.sim.schedule_at(episode.at, disk.set_slowdown, episode.slow_factor)
            if episode.repair_at is not None:
                self.sim.schedule_at(episode.repair_at, disk.clear_slowdown)
        else:
            self.sim.schedule_at(episode.at, disk.fail)
            if episode.repair_at is not None:
                self.sim.schedule_at(episode.repair_at, disk.repair)
