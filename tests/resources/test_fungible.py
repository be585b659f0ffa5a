"""Fungible pools: idempotent grants, redundant returns."""

import random

import pytest

from repro.errors import SimulationError
from repro.resources import FungiblePool


def test_allocate_until_empty():
    pool = FungiblePool("king-nonsmoking", 2)
    assert pool.allocate("g1") is not None
    assert pool.allocate("g2") is not None
    assert pool.allocate("g3") is None
    assert pool.free_count == 0


def test_repeat_uniquifier_same_unit():
    pool = FungiblePool("king-nonsmoking", 2)
    first = pool.allocate("g1")
    again = pool.allocate("g1")
    assert first == again
    assert pool.granted_count == 1


def test_release_returns_unit():
    pool = FungiblePool("king-nonsmoking", 1)
    pool.allocate("g1")
    assert pool.release("g1")
    assert pool.free_count == 1
    assert not pool.release("g1")  # already released


def test_reconcile_returns_redundant_grants():
    """Both replicas served the same order; one unit comes back (§7.5)."""
    east = FungiblePool("king-nonsmoking", 5)
    west = FungiblePool("king-nonsmoking", 5)
    east.allocate("order-1")
    west.allocate("order-1")
    east.allocate("order-2")  # only east
    report = east.reconcile_with(west)
    assert report.returned == 1
    assert east.holder_of("order-1") is None
    assert west.holder_of("order-1") is not None
    assert east.holder_of("order-2") is not None


def test_reconcile_reports_unit_conflicts_without_merging():
    """The same physical unit promised to two different holders is
    *reported*, not silently resolved — someone must be apologized to,
    and the pool cannot know who."""
    east = FungiblePool("king-nonsmoking", 2)
    west = FungiblePool("king-nonsmoking", 2)
    east.allocate("alice")   # unit 0 on east
    west.allocate("bob")     # unit 0 on west: same room, different guest
    report = east.reconcile_with(west)
    assert report.returned == 0
    assert not report.clean
    assert len(report.conflicts) == 1
    conflict = report.conflicts[0]
    assert conflict.unit == 0
    assert conflict.ours == "alice"
    assert conflict.theirs == "bob"
    # Neither grant was touched: resolution belongs to the apology path.
    assert east.holder_of("alice") == 0
    assert west.holder_of("bob") == 0


def test_reconcile_duplicate_is_not_a_conflict():
    """A duplicated uniquifier holding the same unit on both sides is the
    §7.5 merge, never a reported conflict."""
    east = FungiblePool("king-nonsmoking", 2)
    west = FungiblePool("king-nonsmoking", 2)
    east.allocate("order-1")
    west.allocate("order-1")
    report = east.reconcile_with(west)
    assert report.returned == 1
    assert report.clean


def test_reconcile_category_mismatch_rejected():
    with pytest.raises(SimulationError):
        FungiblePool("rooms", 1).reconcile_with(FungiblePool("seats", 1))


def test_negative_capacity_rejected():
    with pytest.raises(SimulationError):
        FungiblePool("x", -1)


class _ListPool:
    """The free-list model the pool replaced: every unit in a list,
    granted from the front, released to the back."""

    def __init__(self, capacity):
        self.free = list(range(capacity))
        self.grants = {}

    def allocate(self, uniquifier):
        if uniquifier in self.grants:
            return self.grants[uniquifier]
        if not self.free:
            return None
        self.grants[uniquifier] = unit = self.free.pop(0)
        return unit

    def release(self, uniquifier):
        unit = self.grants.pop(uniquifier, None)
        if unit is None:
            return False
        self.free.append(unit)
        return True


@pytest.mark.parametrize("seed", range(20))
def test_grant_order_matches_the_free_list_model(seed):
    """Fresh units in order, then released ones first-in first-out: the
    same grants, refusals and free counts as a list of every unit."""
    rng = random.Random(seed)
    capacity = rng.choice([0, 1, 3, 8, 50])
    pool, model = FungiblePool("seats", capacity), _ListPool(capacity)
    for _ in range(400):
        uniquifier = f"u{rng.randrange(2 * capacity + 3)}"
        if rng.random() < 0.6:
            assert pool.allocate(uniquifier) == model.allocate(uniquifier)
        else:
            assert pool.release(uniquifier) == model.release(uniquifier)
        assert pool.free_count == len(model.free)
        assert pool.granted_count == len(model.grants)
    assert {u: pool.holder_of(u) for u in model.grants} == model.grants
