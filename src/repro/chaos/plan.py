"""ChaosPlan: one declarative, seed-driven fault timeline.

The paper's thesis is that "reliable systems have always been built out
of unreliable components"; a :class:`ChaosPlan` is the unreliable part
made explicit. It composes crash/restart, partition/heal, message
drop/delay/duplicate, WAN-cut and disk-fault episodes into a single
schedule and — because every random choice comes from the master seed —
replays bit-for-bit.

A fault is described once, here. Each episode kind checks its own
fields when it is built and, in ``lower(targets)``, checks itself against
the world it is aimed at and returns the timed actions that carry it
out: a target's own ``crash``/``restart``, ``Network.partition``/``heal``,
the network's fault overlay, the :class:`~repro.storage.disk.Disk` hooks.
The :class:`~repro.chaos.engine.ChaosEngine` only schedules what
:meth:`ChaosPlan.lower` returns; a new fault class is one more entry in
this catalogue.

Plans are either written by hand (regression tests pin minimal failing
plans) or sampled from a :class:`ChaosSpec` by seed (sweeps).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.net.network import NetFault, Network
from repro.net.topology import SiteFault, TopologyNetwork

if TYPE_CHECKING:  # the engine imports this module
    from repro.chaos.engine import ChaosTargets

#: One timed step of a lowered episode, ``(when, fn, *args)``: exactly
#: what ``Simulator.schedule_at`` takes.
Action = Tuple[Any, ...]


# ----------------------------------------------------------------------
# Episodes
#
# Each kind knows its name in pinned JSON (``kind``), how to print itself
# (``describe``), how to shrink (``narrowed``: smaller variants of itself,
# most aggressive first, no narrower than ``min_window`` — what the
# runner's shrinker tries once dropping whole episodes stops
# reproducing), and how to happen (``lower``: check the targets, return
# the actions; it schedules nothing, so a plan with one bad episode
# leaves the simulator untouched).


def _network(targets: "ChaosTargets") -> Network:
    if targets.network is None:
        raise SimulationError("plan needs a network target")
    return targets.network


def _overlay(network: Network, episode: Any, fault: NetFault) -> List[Action]:
    """``fault`` is in force on ``network`` for the episode's window."""
    return [
        (episode.start, network.inject_fault, fault),
        (episode.end, network.clear_fault, fault),
    ]


def _cut(network: Network, groups: Tuple[Tuple[str, ...], ...]) -> None:
    network.partition(groups)
    network.sim.trace.emit(
        "net", "partition.cut", groups=[sorted(g) for g in groups]
    )


def _heal(network: Network) -> None:
    network.heal()
    network.sim.trace.emit("net", "partition.heal")


class _Window:
    """Shrinking for episodes that span [start, end]: cut the window to
    its first half while it is wider than two minimum windows."""

    _end_field = "end"

    def narrowed(self, min_window: float) -> Tuple[Any, ...]:
        width = self.end - self.start
        if width > 2 * min_window:
            return (replace(self, **{self._end_field: self.start + width / 2}),)
        return ()


@dataclass(frozen=True)
class CrashEpisode:
    """``node`` fail-fasts at ``at``; restarts at ``back_at`` (None = stays
    down until the run quiesces)."""

    kind = "crash"

    node: str
    at: float
    back_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"crash at negative time {self.at}")
        if self.back_at is not None and self.back_at <= self.at:
            raise SimulationError(
                f"restart {self.back_at} not after crash {self.at}"
            )

    @property
    def start(self) -> float:
        return self.at

    @property
    def end(self) -> float:
        return self.back_at if self.back_at is not None else self.at

    def describe(self) -> str:
        back = f", back {self.back_at:g}" if self.back_at is not None else ", stays down"
        return f"crash      {self.node} @ {self.at:g}{back}"

    def narrowed(self, min_window: float) -> Tuple["CrashEpisode", ...]:
        # Stays-down is simpler than crash-and-restart.
        return (replace(self, back_at=None),) if self.back_at is not None else ()

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        """A target is anything with ``crash(cause)``/``restart()``."""
        if self.node not in targets.nodes:
            raise SimulationError(f"plan crashes unknown node {self.node!r}")
        target = targets.nodes[self.node]
        actions: List[Action] = [(self.at, target.crash, "injected")]
        if self.back_at is not None:
            actions.append((self.back_at, target.restart))
        return actions


@dataclass(frozen=True)
class PartitionEpisode(_Window):
    """The network splits into ``groups`` from ``start`` to ``end``."""

    kind = "partition"

    start: float
    end: float
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )
        if self.end <= self.start:
            raise SimulationError(
                f"empty partition episode [{self.start}, {self.end}]"
            )
        if not self.groups:
            raise SimulationError("partition episode needs at least one group")

    def describe(self) -> str:
        groups = " | ".join("{" + ",".join(g) + "}" for g in self.groups)
        return f"partition  [{self.start:g}, {self.end:g}] {groups}"

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        network = _network(targets)
        return [
            (self.start, _cut, network, self.groups),
            (self.end, _heal, network),
        ]


@dataclass(frozen=True)
class LinkFaultEpisode(_Window):
    """Messages between every pair of endpoints are dropped/duplicated/
    delayed from ``start`` to ``end``."""

    kind = "link_fault"
    src = dst = None  # every endpoint, as the frozen reference engine reads it

    start: float
    end: float
    loss: float = 0.0
    duplicate: float = 0.0
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(f"empty link fault [{self.start}, {self.end}]")
        self._fault()  # NetFault checks the probability and delay bounds
        if self.loss == self.duplicate == self.extra_delay == 0.0:
            raise SimulationError("link fault episode does nothing")

    def _fault(self) -> NetFault:
        return NetFault(
            loss_probability=self.loss,
            duplicate_probability=self.duplicate,
            extra_delay=self.extra_delay,
        )

    def describe(self) -> str:
        return (
            f"link fault [{self.start:g}, {self.end:g}] *->* "
            f"loss={self.loss:g} dup={self.duplicate:g} "
            f"delay+={self.extra_delay:g}"
        )

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        return _overlay(_network(targets), self, self._fault())


@dataclass(frozen=True)
class DiskFaultEpisode(_Window):
    """``disk`` fails hard (``slow_factor`` None) or degrades by
    ``slow_factor``× from ``at`` until ``repair_at`` (None = until
    quiesce)."""

    kind = "disk_fault"
    _end_field = "repair_at"  # never repaired = zero width: not narrowed

    disk: str
    at: float
    repair_at: Optional[float] = None
    slow_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SimulationError(f"disk fault at negative time {self.at}")
        if self.repair_at is not None and self.repair_at <= self.at:
            raise SimulationError(
                f"repair {self.repair_at} not after fault {self.at}"
            )
        if self.slow_factor is not None and self.slow_factor < 1.0:
            raise SimulationError(f"slow factor {self.slow_factor} below 1.0")

    @property
    def start(self) -> float:
        return self.at

    @property
    def end(self) -> float:
        return self.repair_at if self.repair_at is not None else self.at

    def describe(self) -> str:
        what = (
            f"slow x{self.slow_factor:g}" if self.slow_factor is not None
            else "fail"
        )
        repair = (
            f", repair {self.repair_at:g}" if self.repair_at is not None
            else ", stays broken"
        )
        return f"disk {what:>10} {self.disk} @ {self.at:g}{repair}"

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        if self.disk not in targets.disks:
            raise SimulationError(f"plan faults unknown disk {self.disk!r}")
        disk = targets.disks[self.disk]
        if self.slow_factor is not None:
            actions: List[Action] = [(self.at, disk.set_slowdown, self.slow_factor)]
            undo = disk.clear_slowdown
        else:
            actions = [(self.at, disk.fail)]
            undo = disk.repair
        if self.repair_at is not None:
            actions.append((self.repair_at, undo))
        return actions


@dataclass(frozen=True)
class WanCutEpisode(_Window):
    """The WAN between two *sites* is cut (loss=1.0) or degraded from
    ``start`` to ``end`` — one episode partitions whole datacenters at
    once. Needs a topology-aware network target."""

    kind = "wan_cut"

    start: float
    end: float
    site_a: str
    site_b: str
    loss: float = 1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(f"empty WAN cut [{self.start}, {self.end}]")
        if self.site_a == self.site_b:
            raise SimulationError(f"WAN cut needs two sites, got {self.site_a!r}")
        if not 0.0 < self.loss <= 1.0:
            raise SimulationError(f"bad WAN cut loss {self.loss}")

    def describe(self) -> str:
        return (
            f"wan cut    [{self.start:g}, {self.end:g}] "
            f"{self.site_a}<->{self.site_b} loss={self.loss:g}"
        )

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        """Both directions of the site pair, injected and cleared as a
        unit; ``restore()``'s ``clear_all_faults`` sweeps them up if the
        window outlives the horizon."""
        network = targets.network
        if not isinstance(network, TopologyNetwork):
            raise SimulationError(
                "plan cuts WAN links but the network has no topology"
            )
        for site in (self.site_a, self.site_b):
            if site not in network.topology.sites:
                raise SimulationError(f"plan cuts unknown site {site!r}")
        return [
            action
            for fault in SiteFault.pair(
                network.topology, self.site_a, self.site_b, self.loss
            )
            for action in _overlay(network, self, fault)
        ]


Episode = Union[
    CrashEpisode, PartitionEpisode, LinkFaultEpisode, DiskFaultEpisode,
    WanCutEpisode,
]

#: The catalogue, in the order :meth:`ChaosPlan.lower` takes the kinds:
#: that order decides which of two actions at the same instant runs first.
_EPISODE_KINDS = {
    cls.kind: cls
    for cls in (
        CrashEpisode, PartitionEpisode, LinkFaultEpisode, WanCutEpisode,
        DiskFaultEpisode,
    )
}


# ----------------------------------------------------------------------
# The plan


@dataclass(frozen=True)
class ChaosPlan:
    """An ordered, validated collection of episodes."""

    episodes: Tuple[Episode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "episodes", tuple(self.episodes))
        partitions = self._partitions_by_start()
        for earlier, later in zip(partitions, partitions[1:]):
            if later.start < earlier.end:
                raise SimulationError(
                    f"overlapping partition episodes at {later.start} "
                    "(the fabric models one partition at a time)"
                )

    def of(self, kind: str) -> Tuple[Episode, ...]:
        """The episodes of one kind (``"crash"``, ``"partition"``, …), in
        plan order."""
        return tuple(e for e in self.episodes if e.kind == kind)

    def _partitions_by_start(self) -> List[PartitionEpisode]:
        return sorted(self.of("partition"), key=lambda e: e.start)

    def lower(self, targets: "ChaosTargets") -> List[Action]:
        """Every episode's timed actions against ``targets``, in the order
        they are to be scheduled: kind by kind as the catalogue lists
        them, plan order within a kind. Raises before returning anything
        if any episode does not fit the targets."""
        actions: List[Action] = []
        for kind in _EPISODE_KINDS:
            # Partitions go by start instead: where two share a boundary
            # the earlier one's heal must be queued ahead of the later
            # one's cut, or it would undo it.
            episodes = (
                self._partitions_by_start() if kind == "partition"
                else self.of(kind)
            )
            for episode in episodes:
                actions.extend(episode.lower(targets))
        return actions

    @property
    def horizon(self) -> float:
        """Latest simulated time the plan references."""
        return max((e.end for e in self.episodes), default=0.0)

    def __len__(self) -> int:
        return len(self.episodes)

    # -- shrinking support ---------------------------------------------

    def without(self, index: int) -> "ChaosPlan":
        """A new plan minus the episode at ``index``."""
        episodes = list(self.episodes)
        del episodes[index]
        return ChaosPlan(tuple(episodes))

    def replace_episode(self, index: int, episode: Episode) -> "ChaosPlan":
        episodes = list(self.episodes)
        episodes[index] = episode
        return ChaosPlan(tuple(episodes))

    # -- presentation / persistence ------------------------------------

    def describe(self) -> str:
        """One line per episode, in start order."""
        if not self.episodes:
            return "(empty plan)"
        return "\n".join(
            episode.describe()
            for episode in sorted(self.episodes, key=lambda e: e.start)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (for pinning minimal failing plans)."""
        return {
            "episodes": [
                {
                    "kind": episode.kind,
                    **{
                        key: value
                        for key, value in episode.__dict__.items()
                        if value is not None
                    },
                }
                for episode in self.episodes
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        """The inverse of :meth:`to_dict`. The input is whatever a user
        pasted back from a ``plan json:`` line, so every way it can be
        malformed is a :class:`SimulationError` naming the entry."""
        entries = data.get("episodes") if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise SimulationError("plan json has no 'episodes' list")
        episodes: List[Episode] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise SimulationError(f"episode {index} has no 'kind': {entry!r}")
            fields = dict(entry)
            kind = fields.pop("kind")
            if not isinstance(kind, str) or kind not in _EPISODE_KINDS:
                raise SimulationError(
                    f"episode {index}: unknown kind {kind!r} "
                    f"(have {', '.join(_EPISODE_KINDS)})"
                )
            try:
                episodes.append(_EPISODE_KINDS[kind](**fields))
            except (TypeError, SimulationError) as error:
                # TypeError: a field the kind does not have, one it needs
                # and did not get, or a value of the wrong type.
                raise SimulationError(f"episode {index} ({kind}): {error}") from None
        return cls(tuple(episodes))


# ----------------------------------------------------------------------
# Seed-driven sampling


@dataclass
class ChaosSpec:
    """Bounds from which a concrete :class:`ChaosPlan` is drawn by seed.

    Sampling is a pure function of (spec, seed): the same pair always
    yields the same plan, so a sweep's failures are reproducible from
    the seed alone.
    """

    nodes: Tuple[str, ...]
    disks: Tuple[str, ...] = ()
    site_pairs: Tuple[Tuple[str, str], ...] = ()
    max_wan_cuts: int = 0
    horizon: float = 40.0
    min_crashes: int = 0
    max_crashes: int = 2
    max_partitions: int = 2
    max_link_faults: int = 2
    max_disk_faults: int = 1
    min_episode: float = 1.0
    max_episode: float = 8.0
    fault_loss: float = 0.3
    fault_duplicate: float = 0.15

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.disks = tuple(self.disks)
        self.site_pairs = tuple(tuple(pair) for pair in self.site_pairs)
        if not self.nodes:
            raise SimulationError("chaos spec needs at least one node")
        if self.horizon <= 0:
            raise SimulationError("horizon must be positive")
        if not 0 <= self.min_crashes <= self.max_crashes:
            raise SimulationError("bad crash bounds")
        if self.min_episode <= 0 or self.max_episode < self.min_episode:
            raise SimulationError("bad episode duration bounds")

    def sample(self, seed: int) -> ChaosPlan:
        """Draw a plan for ``seed``; episodes end by ~0.9 × horizon so the
        run has tail time to converge before quiesce."""
        rng = random.Random(f"chaos-spec:{seed}")
        latest = 0.9 * self.horizon
        episodes: List[Episode] = []

        crashes = rng.randint(self.min_crashes, self.max_crashes)
        for _ in range(crashes):
            node = rng.choice(self.nodes)
            at = rng.uniform(0.05 * self.horizon, 0.6 * self.horizon)
            outage = rng.uniform(self.min_episode, self.max_episode)
            back_at: Optional[float] = min(at + outage, latest)
            if rng.random() < 0.15:  # some nodes stay down to quiesce
                back_at = None
            episodes.append(CrashEpisode(node, round(at, 4), _round(back_at)))

        cursor = rng.uniform(0.05 * self.horizon, 0.3 * self.horizon)
        for _ in range(rng.randint(0, self.max_partitions)):
            start = cursor + rng.uniform(0.0, 0.1 * self.horizon)
            end = start + rng.uniform(self.min_episode, self.max_episode)
            if end > latest or len(self.nodes) < 2:
                break
            episodes.append(
                PartitionEpisode(round(start, 4), round(end, 4),
                                 self._bipartition(rng))
            )
            cursor = end + rng.uniform(0.5, 2.0)

        for _ in range(rng.randint(0, self.max_link_faults)):
            start = rng.uniform(0.0, 0.7 * self.horizon)
            end = min(start + rng.uniform(self.min_episode, self.max_episode), latest)
            if end <= start:
                continue
            episodes.append(
                LinkFaultEpisode(
                    round(start, 4), round(end, 4),
                    loss=round(rng.uniform(0.0, self.fault_loss), 4),
                    duplicate=round(rng.uniform(0.0, self.fault_duplicate), 4),
                    extra_delay=round(rng.uniform(0.0, 0.01), 6),
                )
            )

        # Drawn only when site pairs exist, so specs without a topology
        # sample bit-identical plans to before WAN cuts were a kind.
        if self.site_pairs and self.max_wan_cuts:
            for _ in range(rng.randint(0, self.max_wan_cuts)):
                site_a, site_b = rng.choice(self.site_pairs)
                start = rng.uniform(0.05 * self.horizon, 0.6 * self.horizon)
                end = min(
                    start + rng.uniform(self.min_episode, self.max_episode),
                    latest,
                )
                if end <= start:
                    continue
                episodes.append(
                    WanCutEpisode(round(start, 4), round(end, 4), site_a, site_b)
                )

        if self.disks:
            for _ in range(rng.randint(0, self.max_disk_faults)):
                disk = rng.choice(self.disks)
                at = rng.uniform(0.05 * self.horizon, 0.6 * self.horizon)
                repair = min(at + rng.uniform(self.min_episode, self.max_episode), latest)
                slow = rng.choice((None, round(rng.uniform(2.0, 10.0), 2)))
                episodes.append(
                    DiskFaultEpisode(disk, round(at, 4), round(repair, 4), slow)
                )

        return ChaosPlan(tuple(episodes))

    def _bipartition(self, rng: random.Random) -> Tuple[Tuple[str, ...], ...]:
        """A random two-way split with both sides non-empty."""
        names = list(self.nodes)
        rng.shuffle(names)
        cut = rng.randint(1, len(names) - 1)
        return (tuple(sorted(names[:cut])), tuple(sorted(names[cut:])))


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 4)
