"""Stateful hypothesis: the fungible pool conserves units under any
interleaving of allocations and releases."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.resources import FungiblePool

CAPACITY = 6
UNIQS = [f"order-{i}" for i in range(10)]


class FungibleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.east = FungiblePool("rooms", CAPACITY)
        self.west = FungiblePool("rooms", CAPACITY)

    @rule(pool_name=st.sampled_from(["east", "west"]), uniq=st.sampled_from(UNIQS))
    def allocate(self, pool_name, uniq):
        pool = getattr(self, pool_name)
        before = pool.holder_of(uniq)
        unit = pool.allocate(uniq)
        if before is not None:
            assert unit == before  # idempotent grant

    @rule(pool_name=st.sampled_from(["east", "west"]), uniq=st.sampled_from(UNIQS))
    def release(self, pool_name, uniq):
        getattr(self, pool_name).release(uniq)

    @invariant()
    def units_conserved_per_pool(self):
        for pool in (self.east, self.west):
            assert pool.free_count + pool.granted_count == CAPACITY

    @invariant()
    def no_double_granted_unit_within_a_pool(self):
        for pool in (self.east, self.west):
            units = list(pool._grants.values())
            assert len(units) == len(set(units))


TestFungibleMachine = FungibleMachine.TestCase
TestFungibleMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
