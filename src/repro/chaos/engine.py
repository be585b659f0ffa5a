"""Install a :class:`~repro.chaos.plan.ChaosPlan` on a live simulation.

The engine owns no fault behaviour of its own. Each episode lowers
itself (:meth:`ChaosPlan.lower`): it checks itself against the
:class:`ChaosTargets` and names the calls that carry it out — a target's
``crash``/``restart``, ``Network.partition``/``heal``, the network's fault
overlay, the :class:`~repro.storage.disk.Disk` hooks. The engine puts
those calls on the simulator's clock, and at quiesce undoes whatever is
still in force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.chaos.plan import ChaosPlan
from repro.errors import SimulationError
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk


@dataclass
class ChaosTargets:
    """What a plan may act on.

    ``nodes`` maps name → anything with ``crash(cause)``/``restart()``
    (scenarios hand in :class:`~repro.chaos.harness.Crashable`);
    ``disks`` maps name → :class:`Disk`. Both may be empty when the plan
    does not use that episode kind.
    """

    sim: Simulator
    network: Optional[Network] = None
    nodes: Dict[str, Any] = field(default_factory=dict)
    disks: Dict[str, Disk] = field(default_factory=dict)


class ChaosEngine:
    """Installs a plan's episodes as simulator callbacks."""

    def __init__(self, targets: ChaosTargets) -> None:
        self.targets = targets
        self.sim = targets.sim
        self.installed: Optional[ChaosPlan] = None

    def install(self, plan: ChaosPlan) -> None:
        """Check the plan against the targets and schedule everything."""
        if self.installed is not None:
            raise SimulationError("engine already has a plan installed")
        # Lowered in full before the first call is scheduled, so a plan
        # that does not fit the targets raises with the queue untouched.
        for when, fn, *args in plan.lower(self.targets):
            self.sim.schedule_at(when, fn, *args)
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
        for node in self.targets.nodes.values():
            node.restart()
        self.sim.trace.emit("chaos", "plan.restored")
