"""A simulated disk: one arm, service-timed requests, optional failure.

Requests queue FIFO on the single arm (a :class:`~repro.sim.sync.Lock`), so a burst of
writes sees queueing delay — this is what makes group commit (§3.2) *win*:
one big write costs far less than many small ones.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.errors import CrashedError, SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.sim.sync import Lock


class Disk:
    """Durable block device with per-request service time.

    ``service_time`` is the fixed cost per request; ``per_item_time`` adds
    cost proportional to the batch size for batched writes (seek+rotate
    dominates, transfer is cheap — exactly the group-commit economics).
    """

    service_time = 0.005
    per_item_time = 0.0001

    def __init__(self, sim: Simulator, name: str = "disk") -> None:
        self.sim = sim
        self.name = name
        self.failed = False
        self.slow_factor = 1.0
        self._arm = Lock(sim, name=f"{name}.arm")
        self._blocks: Dict[Any, Any] = {}

    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Media failure: the disk stops serving (durable content kept for
        post-mortem inspection/repair, as with a pulled drive)."""
        self.failed = True
        self.sim.trace.emit(self.name, "disk.fail")

    def repair(self) -> None:
        self.failed = False
        self.sim.trace.emit(self.name, "disk.repair")

    def set_slowdown(self, factor: float) -> None:
        """Degrade service: every request costs ``factor``× its normal
        time (a sick-but-alive drive, the gray failure chaos plans need)."""
        if factor < 1.0:
            raise SimulationError(f"slowdown factor {factor} below 1.0")
        self.slow_factor = factor
        self.sim.trace.emit(self.name, "disk.slowdown", factor=factor)

    def clear_slowdown(self) -> None:
        self.slow_factor = 1.0
        self.sim.trace.emit(self.name, "disk.slowdown.clear")

    def write(self, key: Any, value: Any) -> Generator[Any, Any, None]:
        """Durable write of one block. ``yield from`` this."""
        yield from self._service(1)
        self._blocks[key] = value
        self.sim.metrics.inc(f"disk.{self.name}.writes")

    def write_batch(self, items: Dict[Any, Any]) -> Generator[Any, Any, None]:
        """Durable write of many blocks in one arm pass. Atomic against
        media failure: if the disk dies mid-service, no block lands."""
        yield from self._service(len(items))
        self._blocks.update(items)
        self.sim.metrics.inc(f"disk.{self.name}.writes")
        self.sim.metrics.inc(f"disk.{self.name}.blocks_written", len(items))

    def read(self, key: Any) -> Generator[Any, Any, Any]:
        """Timed read; returns the block value or None."""
        yield from self._service(1)
        self.sim.metrics.inc(f"disk.{self.name}.reads")
        return self._blocks.get(key)

    def read_batch(self, keys: Any) -> Generator[Any, Any, Dict[Any, Any]]:
        """Timed sequential read of many blocks in one arm pass (the
        recovery scan: cost scales with how much is read, not with what
        the disk holds). Missing keys are omitted from the result."""
        keys = list(keys)
        yield from self._service(len(keys))
        self.sim.metrics.inc(f"disk.{self.name}.reads")
        self.sim.metrics.inc(f"disk.{self.name}.blocks_read", len(keys))
        return {key: self._blocks[key] for key in keys if key in self._blocks}

    def delete_batch(self, keys: Any) -> Generator[Any, Any, int]:
        """Timed removal of many blocks in one arm pass (the garbage
        collection a compacting store runs). Missing keys are ignored;
        returns how many blocks were actually removed."""
        keys = list(keys)
        yield from self._service(len(keys))
        removed = 0
        for key in keys:
            if key in self._blocks:
                del self._blocks[key]
                removed += 1
        self.sim.metrics.inc(f"disk.{self.name}.deletes")
        self.sim.metrics.inc(f"disk.{self.name}.blocks_deleted", removed)
        return removed

    def peek(self, key: Any) -> Optional[Any]:
        """Zero-time read for tests and recovery tooling."""
        return self._blocks.get(key)

    def contents(self) -> Dict[Any, Any]:
        """Snapshot of all blocks (zero-time; recovery tooling)."""
        return dict(self._blocks)

    def __contains__(self, key: Any) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------

    def _service(self, items: int) -> Generator[Any, Any, None]:
        if self.failed:
            raise CrashedError(f"disk {self.name!r} has failed")
        yield self._arm.acquire()
        try:
            if self.failed:  # failed while queued
                raise CrashedError(f"disk {self.name!r} has failed")
            yield Timeout(
                (self.service_time + self.per_item_time * items) * self.slow_factor
            )
            if self.failed:
                # The media died while the request was in service — e.g. a
                # slow-disk fault stretched the transfer past the failure.
                # The request did NOT complete; surfacing it here is what
                # keeps a WAL flush from silently advancing durable_lsn
                # over a half-written batch.
                self.sim.metrics.inc(f"disk.{self.name}.interrupted_requests")
                raise CrashedError(f"disk {self.name!r} failed mid-request")
        finally:
            self._arm.release()

    @property
    def queue_depth(self) -> int:
        return self._arm.queue_depth
