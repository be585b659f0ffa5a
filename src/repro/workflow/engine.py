"""The workflow engine: stages, replicas, knowledge exchange.

Execution records — (uniquifier, stage, result) — are the memories. A
replica processes an item only if it has no record for the uniquifier;
stimulated children are enqueued locally. When replicas exchange records,
an execution already known elsewhere is recognized as *redundant work*:
it happened twice physically, but the derived identity collapses it to
one logical effect (and the metric counts what over-enthusiasm cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.workflow.items import WorkItem

# A handler takes the item and returns (result, stimulated children).
StageHandler = Callable[[WorkItem], Tuple[Any, List[WorkItem]]]


@dataclass(frozen=True)
class ExecutionRecord:
    """One completed execution, as shared between replicas."""

    uniquifier: str
    stage: str
    result: Any
    executed_at: str


class WorkflowReplica:
    """One site running the workflow on local knowledge."""

    def __init__(self, name: str, stages: Dict[str, StageHandler]) -> None:
        self.name = name
        self.stages = dict(stages)
        self.records: Dict[str, ExecutionRecord] = {}
        self.queue: List[WorkItem] = []
        self.executions = 0  # physical executions at this replica

    # ------------------------------------------------------------------

    def submit(self, item: WorkItem) -> bool:
        """Ingress (or retry — same uniquifier is a no-op)."""
        if item.uniquifier in self.records:
            return False
        self.queue.append(item)
        return True

    def drain(self) -> int:
        """Process queued work (and whatever it stimulates) to quiescence.
        Returns the number of physical executions performed."""
        performed = 0
        while self.queue:
            item = self.queue.pop(0)
            if item.uniquifier in self.records:
                continue  # learned about it since enqueueing
            handler = self.stages.get(item.stage)
            if handler is None:
                raise SimulationError(f"no handler for stage {item.stage!r}")
            result, children = handler(item)
            self.records[item.uniquifier] = ExecutionRecord(
                uniquifier=item.uniquifier,
                stage=item.stage,
                result=result,
                executed_at=self.name,
            )
            self.executions += 1
            performed += 1
            self.queue.extend(children)
        return performed


class WorkflowSystem:
    """Replicas plus the knowledge-sloshing between them."""

    def __init__(self, replica_names: Sequence[str], stages: Dict[str, StageHandler]) -> None:
        if not replica_names:
            raise SimulationError("need at least one workflow replica")
        if len(set(replica_names)) != len(replica_names):
            raise SimulationError(f"repeated workflow replica name in {replica_names!r}")
        self.replicas: Dict[str, WorkflowReplica] = {
            name: WorkflowReplica(name, stages) for name in replica_names
        }
        self.redundant_detected = 0

    def replica(self, name: str) -> WorkflowReplica:
        if name not in self.replicas:
            raise SimulationError(f"unknown workflow replica {name!r}")
        return self.replicas[name]

    def submit(self, replica_name: str, item: WorkItem) -> None:
        replica = self.replica(replica_name)
        replica.submit(item)
        replica.drain()

    # ------------------------------------------------------------------
    # Knowledge exchange

    def sync(self, a_name: str, b_name: str) -> int:
        """Bidirectional record exchange. Every record one side holds for
        a uniquifier the other side *also executed* is a detected
        redundancy — the work physically happened twice; the earlier-named
        replica's record wins deterministically so all sites converge on
        one logical result. Returns records moved."""
        a, b = self.replica(a_name), self.replica(b_name)
        moved = 0
        shared = set(a.records) & set(b.records)
        for uniquifier in shared:
            record_a, record_b = a.records[uniquifier], b.records[uniquifier]
            if record_a.executed_at != record_b.executed_at:
                self.redundant_detected += 1
                winner = min((record_a, record_b), key=lambda r: r.executed_at)
                a.records[uniquifier] = winner
                b.records[uniquifier] = winner
        for source, target in ((a, b), (b, a)):
            for uniquifier, record in source.records.items():
                if uniquifier not in target.records:
                    target.records[uniquifier] = record
                    moved += 1
        # Learning kills queued duplicates on the next drain.
        return moved

    def sync_all(self) -> None:
        names = list(self.replicas)
        for _ in range(len(names)):
            for left, right in zip(names, names[1:] + names[:1]):
                if left != right:
                    self.sync(left, right)

    # ------------------------------------------------------------------
    # Accounting

    def logical_executions(self) -> int:
        """Distinct uniquifiers executed anywhere."""
        seen = set()
        for replica in self.replicas.values():
            seen.update(replica.records)
        return len(seen)

    def physical_executions(self) -> int:
        return sum(replica.executions for replica in self.replicas.values())

    def effective_exactly_once(self) -> bool:
        """After full sync: every replica agrees on one record per
        uniquifier (same executing site, same result)."""
        reference: Dict[str, ExecutionRecord] = {}
        for replica in self.replicas.values():
            for uniquifier, record in replica.records.items():
                if uniquifier in reference and reference[uniquifier] != record:
                    return False
                reference.setdefault(uniquifier, record)
        return True
