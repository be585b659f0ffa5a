"""Fungible pools: idempotent grants, released units reused in order."""

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
