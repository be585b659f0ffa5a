"""The §5.4 scenario: over-enthusiastic replicas, collapsed duplicates."""

import pytest

from repro.errors import SimulationError
from repro.workflow import WorkItem, WorkflowSystem


def purchase_order_stages():
    """order -> ship -> invoice."""
    shipments = []
    invoices = []

    def handle_order(item):
        return f"accepted {item.uniquifier}", [item.child("ship")]

    def handle_ship(item):
        shipments.append(item.uniquifier)
        return f"shipped {item.payload.get('sku')}", [item.child("invoice")]

    def handle_invoice(item):
        invoices.append(item.uniquifier)
        return "invoiced", []

    stages = {"order": handle_order, "ship": handle_ship, "invoice": handle_invoice}
    return stages, shipments, invoices


def test_single_replica_runs_the_chain():
    stages, shipments, invoices = purchase_order_stages()
    system = WorkflowSystem(["east"], stages)
    system.submit("east", WorkItem("po-1", "order", {"sku": "book"}))
    assert system.logical_executions() == 3  # order, ship, invoice
    assert shipments == ["po-1/ship#0"]
    assert invoices == ["po-1/ship#0/invoice#0"]


def test_retry_same_uniquifier_is_noop():
    stages, shipments, _ = purchase_order_stages()
    system = WorkflowSystem(["east"], stages)
    po = WorkItem("po-1", "order", {"sku": "book"})
    system.submit("east", po)
    system.submit("east", po.resubmission())
    assert shipments == ["po-1/ship#0"]
    assert system.physical_executions() == 3


def test_two_enthusiastic_replicas_collapse_on_sync():
    """Both replicas process the same PO while disconnected: the shipment
    is physically scheduled twice, but the derived identity lets the sync
    detect and collapse the redundancy (§5.4)."""
    stages, shipments, _ = purchase_order_stages()
    system = WorkflowSystem(["east", "west"], stages)
    po = WorkItem("po-1", "order", {"sku": "book"})
    system.submit("east", po)
    system.submit("west", po)  # the retry landed elsewhere
    assert len(shipments) == 2  # irrational exuberance: two real shipments
    system.sync_all()
    assert system.redundant_detected >= 1
    assert system.logical_executions() == 3
    assert system.effective_exactly_once()


def test_informed_replica_does_not_duplicate():
    """If the replicas talk *before* the retry arrives, the second replica
    recognizes the work and does nothing."""
    stages, shipments, _ = purchase_order_stages()
    system = WorkflowSystem(["east", "west"], stages)
    po = WorkItem("po-1", "order", {"sku": "book"})
    system.submit("east", po)
    system.sync("east", "west")
    system.submit("west", po)
    assert len(shipments) == 1
    assert system.physical_executions() == 3


def test_queued_duplicate_killed_by_learning():
    stages, shipments, _ = purchase_order_stages()
    system = WorkflowSystem(["east", "west"], stages)
    po = WorkItem("po-1", "order", {"sku": "book"})
    system.submit("east", po)
    west = system.replica("west")
    west.submit(po)            # queued, not yet drained
    system.sync("east", "west")  # west learns the whole chain first
    assert west.drain() == 0     # the queued duplicate dies quietly
    assert len(shipments) == 1


def test_distinct_orders_do_not_collide():
    stages, shipments, _ = purchase_order_stages()
    system = WorkflowSystem(["east", "west"], stages)
    system.submit("east", WorkItem("po-1", "order", {"sku": "book"}))
    system.submit("west", WorkItem("po-2", "order", {"sku": "pen"}))
    system.sync_all()
    assert len(shipments) == 2
    assert system.redundant_detected == 0
    assert system.logical_executions() == 6


def test_unknown_stage_raises():
    system = WorkflowSystem(["east"], {})
    with pytest.raises(SimulationError):
        system.submit("east", WorkItem("x", "nowhere"))


def test_repeated_replica_name_rejected():
    """Two sites named "x" would silently collapse to one."""
    stages, _, _ = purchase_order_stages()
    with pytest.raises(SimulationError, match="repeated"):
        WorkflowSystem(["x", "x"], stages)


def test_converged_records_after_sync():
    stages, _, _ = purchase_order_stages()
    system = WorkflowSystem(["a", "b", "c"], stages)
    system.submit("a", WorkItem("po-1", "order", {}))
    system.submit("b", WorkItem("po-2", "order", {}))
    system.sync_all()
    keys = [set(r.records) for r in system.replicas.values()]
    assert keys[0] == keys[1] == keys[2]
    assert system.effective_exactly_once()
