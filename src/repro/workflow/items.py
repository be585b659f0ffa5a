"""Work items and functionally-dependent child identities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import SimulationError


def derive_child_uniquifier(parent_uniquifier: str, stage: str) -> str:
    """The §5.4 footnote discipline: the child's identity is a pure
    function of the parent's and the step, never of who executed it or
    when. Two replicas that both stimulate the shipment for PO-7 derive
    the *same* shipment id, which is what lets the duplicate collapse."""
    return f"{parent_uniquifier}/{stage}#0"


@dataclass(frozen=True)
class WorkItem:
    """One piece of uniquified work flowing through the stages."""

    uniquifier: str
    stage: str
    payload: Dict[str, Any] = field(default_factory=dict)
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.uniquifier:
            raise SimulationError("work items need a uniquifier at ingress")

    def child(self, stage: str) -> "WorkItem":
        """A stimulated follow-on item with a derived identity, carrying
        a copy of this item's payload."""
        return WorkItem(
            uniquifier=derive_child_uniquifier(self.uniquifier, stage),
            stage=stage,
            payload=dict(self.payload),
            parent=self.uniquifier,
        )

    def resubmission(self) -> "WorkItem":
        """§7.7: "the purchase-order would be resubmitted without
        modification to ensure a lack of confusion" — a resubmission IS
        the same item (same uniquifier), so this is the identity; it
        exists to make call sites read like the paper."""
        return self
