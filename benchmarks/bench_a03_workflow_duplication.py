"""Ablation A3 — redundant work vs how often replicas talk (§5.4).

Retries of purchase orders land at whichever replica answers; each
disconnected replica enthusiastically schedules the shipment. The derived
child uniquifier guarantees the duplicates *collapse logically*, but the
physical work still happened — and the waste shrinks as knowledge
exchange becomes more frequent.
"""

import random

from repro.analysis import Table
from repro.workflow import WorkItem, WorkflowSystem


def build_stages():
    def handle_order(item):
        return "accepted", [item.child("ship")]

    def handle_ship(item):
        return "shipped", []

    return {"order": handle_order, "ship": handle_ship}


def run_point(sync_every, seed, orders=40, retry_probability=0.5):
    rng = random.Random(seed)
    system = WorkflowSystem(["east", "west"], build_stages())
    retries = []  # (due_index, item, replica) — the client's timer window
    for index in range(orders):
        for due, item, replica in [r for r in retries if r[0] == index]:
            system.submit(replica, item.resubmission())
        retries = [r for r in retries if r[0] != index]
        po = WorkItem(f"po-{index}", "order", {"sku": "book"})
        first = rng.choice(["east", "west"])
        system.submit(first, po)
        if rng.random() < retry_probability:
            # The client's timer will expire a few orders from now and the
            # retry will land at the peer.
            other = "west" if first == "east" else "east"
            retries.append((index + rng.randint(2, 8), po, other))
        if sync_every and (index + 1) % sync_every == 0:
            system.sync_all()
    for _due, item, replica in retries:
        system.submit(replica, item.resubmission())
    system.sync_all()
    logical = system.logical_executions()
    physical = system.physical_executions()
    return {
        "logical": logical,
        "physical": physical,
        "waste": (physical - logical) / logical,
        "exactly_once": system.effective_exactly_once(),
    }


def run_sweep():
    rows = []
    for label, sync_every in (("every order", 1), ("every 5", 5),
                              ("every 20", 20), ("only at the end", 0)):
        points = [run_point(sync_every, seed) for seed in range(5)]
        n = len(points)
        rows.append(
            (label,
             sum(p["physical"] for p in points) / n,
             sum(p["logical"] for p in points) / n,
             sum(p["waste"] for p in points) / n,
             all(p["exactly_once"] for p in points))
        )
    return rows


def test_a03_workflow_duplication():
    rows = run_sweep()
    table = Table(
        "A3  40 purchase orders, 50% retried at the other replica",
        ["knowledge exchange", "physical executions", "logical executions",
         "wasted-work fraction", "effectively exactly-once"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    by_label = {row[0]: row for row in rows}
    # Shape: logical executions are identical everywhere (the uniquifier
    # guarantee); physical waste grows as the replicas talk less.
    assert all(row[4] for row in rows)
    logical_counts = {row[2] for row in rows}
    assert len(logical_counts) == 1
    assert by_label["every order"][3] <= by_label["only at the end"][3]
    assert by_label["only at the end"][3] > 0
