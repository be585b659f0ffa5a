"""Over-provision vs over-book slider."""

import pytest

from repro.errors import SimulationError
from repro.resources import AllocationOutcome, InventorySystem


def test_validation():
    with pytest.raises(SimulationError):
        InventorySystem(0, ["a"])
    with pytest.raises(SimulationError):
        InventorySystem(10, [])
    with pytest.raises(SimulationError):
        InventorySystem(10, ["a"], theta=1.5)


def test_overprovision_respects_private_quota():
    """θ=0 with 10 units over 2 replicas: each sells at most 5, even while
    disconnected — never oversold."""
    inv = InventorySystem(10, ["a", "b"], theta=0.0)
    granted = sum(
        1 for i in range(8) if inv.request("a", f"r{i}") is AllocationOutcome.GRANTED
    )
    assert granted == 5
    assert inv.declined == 3
    assert inv.oversold() == 0.0


def test_overprovision_declines_business_it_could_have_had():
    """The paper's complaint about over-provisioning: excess stays locked
    in the idle replica."""
    inv = InventorySystem(10, ["a", "b"], theta=0.0)
    for i in range(10):
        inv.request("a", f"r{i}")
    assert inv.unsold() == 5.0  # b's quota sat idle
    assert inv.declined == 5


def test_overbook_sells_more_but_oversells():
    """θ=1 disconnected replicas each believe all 10 remain."""
    inv = InventorySystem(10, ["a", "b"], theta=1.0)
    for i in range(8):
        inv.request("a", f"a{i}")
    for i in range(8):
        inv.request("b", f"b{i}")
    inv.sync_all()
    assert inv.total_reserved() == 16.0
    assert inv.oversold() == 6.0  # six apologies


def test_overbook_with_communication_stops_at_capacity():
    """Connected (synced before each request), over-booking is safe."""
    inv = InventorySystem(10, ["a", "b"], theta=1.0)
    outcomes = []
    for i in range(12):
        replica = "a" if i % 2 == 0 else "b"
        inv.sync("a", "b")
        outcomes.append(inv.request(replica, f"r{i}"))
    granted = sum(1 for o in outcomes if o is AllocationOutcome.GRANTED)
    assert granted == 10
    assert inv.oversold() == 0.0


def test_slider_interpolates():
    """θ=0.5 books more than θ=0 and less than θ=1 when disconnected."""

    def run(theta):
        inv = InventorySystem(10, ["a", "b"], theta=theta)
        for i in range(10):
            inv.request("a", f"a{i}")
            inv.request("b", f"b{i}")
        return inv.total_reserved()

    assert run(0.0) <= run(0.5) <= run(1.0)
    assert run(0.0) < run(1.0)


def test_duplicate_request_at_same_replica():
    inv = InventorySystem(10, ["a"], theta=0.0)
    assert inv.request("a", "r1") is AllocationOutcome.GRANTED
    assert inv.request("a", "r1") is AllocationOutcome.DUPLICATE
    assert inv.total_reserved() == 1.0


def test_same_uniquifier_at_two_replicas_collapses_on_sync():
    """Over-zealous replicas both do the work; the uniquifier collapses it
    to one reservation at reconciliation (§7.5)."""
    inv = InventorySystem(10, ["a", "b"], theta=1.0)
    inv.request("a", "order-1")
    inv.request("b", "order-1")
    inv.sync("a", "b")
    assert inv.total_reserved() == 1.0


def test_unknown_replica_rejected():
    inv = InventorySystem(10, ["a"])
    with pytest.raises(SimulationError):
        inv.request("ghost", "r1")


def test_repeated_replica_name_rejected():
    """Two sites named "a" would silently be one site with half the
    stock: at θ = 0 it could sell only 5 of 10 units."""
    with pytest.raises(SimulationError, match="repeated"):
        InventorySystem(10, ["a", "a"])
