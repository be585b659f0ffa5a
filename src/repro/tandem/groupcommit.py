"""Group commit in isolation: the car-per-driver vs. city-bus experiment.

§3.2: "waiting to participate in shared buffer writes can, under the right
circumstances, result in a reduction of latency since the overall system
work is reduced." This component lets the E2 bench sweep the bus timer
against arrival rate and find where that crossover happens.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk


class GroupCommitter:
    """Commit requests against one log disk.

    ``timer == None`` → no batching: every commit is its own disk write
    (the car per driver). ``timer >= 0`` → commits join a shared batch
    that departs ``timer`` seconds after the first passenger boards.
    """

    def __init__(self, sim: Simulator, disk: Disk, timer: float | None = 0.002) -> None:
        if timer is not None and timer < 0:
            raise SimulationError(f"negative group commit timer {timer}")
        self.sim = sim
        self.disk = disk
        self.timer = timer
        self._seq = 0
        self._waiting: List[Tuple[int, Any]] = []
        self._bus_scheduled = False

    def commit(self) -> Generator[Any, Any, float]:
        """Make one commit durable; returns its latency."""
        start = self.sim.now
        self._seq += 1
        seq = self._seq
        if self.timer is None:
            yield from self.disk.write(("commit", seq), None)
        else:
            done = self.sim.event(name=f"gc.{seq}")
            self._waiting.append((seq, done))
            if not self._bus_scheduled:
                self._bus_scheduled = True
                self.sim.spawn(self._drive_bus(), name="gc.bus")
            yield done
        latency = self.sim.now - start
        self.sim.metrics.observe("groupcommit.latency", latency)
        return latency

    def _drive_bus(self) -> Generator[Any, Any, None]:
        while True:
            yield Timeout(self.timer or 0.0)
            riders, self._waiting = self._waiting, []
            if riders:
                batch = {("commit", seq): None for seq, _done in riders}
                yield from self.disk.write_batch(batch)
                self.sim.metrics.inc("groupcommit.busses")
                self.sim.metrics.inc("groupcommit.riders", len(riders))
                for _seq, done in riders:
                    done.trigger(None)
            if not self._waiting:
                self._bus_scheduled = False
                return
