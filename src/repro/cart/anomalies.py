"""Cart anomaly accounting: compare an observed cart to ground truth.

Ground truth for a set of operations is the canonical fold
(:func:`repro.cart.operations.materialize`). An observed cart produced by
some strategy/merge path can deviate in the two directions §6.1 and §6.4
discuss:

- **lost/shorted** — items the truth says should be present (at some
  quantity) that the observation is missing or under-reports: the
  unforgivable direction ("items added to the cart will not be lost").
- **resurrected** — items the truth says were deleted that the
  observation still shows ("occasionally deleted items will reappear"):
  annoying but survivable, caught at order review.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.cart.operations import CartOp, materialize


@dataclass
class CartAnomalies:
    """The deviation report for one cart."""

    lost_items: List[str] = field(default_factory=list, init=False)
    shorted_items: List[str] = field(default_factory=list, init=False)
    resurrected_items: List[str] = field(default_factory=list, init=False)
    phantom_items: List[str] = field(default_factory=list, init=False)

    @property
    def clean(self) -> bool:
        return not (
            self.lost_items
            or self.shorted_items
            or self.resurrected_items
            or self.phantom_items
        )

    @property
    def lost_or_shorted(self) -> int:
        return len(self.lost_items) + len(self.shorted_items)


def compare_to_truth(
    observed: Dict[str, int], ops: Iterable[CartOp]
) -> CartAnomalies:
    """Classify every deviation between ``observed`` and the ground-truth
    materialization of ``ops``."""
    ops = list(ops)
    truth = materialize(ops)
    report = CartAnomalies()
    for item, quantity in truth.items():
        seen = observed.get(item, 0)
        if seen == 0:
            report.lost_items.append(item)
        elif seen < quantity:
            report.shorted_items.append(item)
    deleted_items = {op.item for op in ops if op.kind == "DELETE"}
    for item in observed:
        if item in truth:
            continue
        if item in deleted_items:
            report.resurrected_items.append(item)
        else:
            report.phantom_items.append(item)
    report.lost_items.sort()
    report.shorted_items.sort()
    report.resurrected_items.sort()
    report.phantom_items.sort()
    return report


def aggregate(reports: Iterable[CartAnomalies]) -> Dict[str, int]:
    """Totals across many carts (the E8 table's columns)."""
    totals = {"lost": 0, "shorted": 0, "resurrected": 0, "phantom": 0, "clean": 0}
    for report in reports:
        totals["lost"] += len(report.lost_items)
        totals["shorted"] += len(report.shorted_items)
        totals["resurrected"] += len(report.resurrected_items)
        totals["phantom"] += len(report.phantom_items)
        totals["clean"] += int(report.clean)
    return totals
