"""Domain workload generators, all drawing from named seeded streams."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.bank.check import Check


class CheckStream:
    """A stream of checks drawn on one account, numbered sequentially.

    Amounts are log-uniform-ish between ``low`` and ``high`` with an
    optional fraction of "big" checks at ``big_amount`` (for the risk
    threshold experiment).
    """

    bank = "fnb"
    account = "acct1"

    def __init__(
        self,
        rng: random.Random,
        low: float = 10.0,
        high: float = 500.0,
        big_fraction: float = 0.0,
        big_amount: float = 15_000.0,
    ) -> None:
        self.rng = rng
        self.low = low
        self.high = high
        self.big_fraction = big_fraction
        self.big_amount = big_amount
        self._number = 0

    def next_check(self) -> Check:
        self._number += 1
        if self.big_fraction and self.rng.random() < self.big_fraction:
            amount = self.big_amount
        else:
            amount = round(self.rng.uniform(self.low, self.high), 2)
        return Check(self.bank, self.account, self._number, "payee", amount)


@dataclass
class CartSessionPlan:
    """One shopper session: a list of (kind, item, quantity) steps."""

    session_id: str
    steps: List[Tuple[str, str, int]] = field(default_factory=list)


_ITEMS = ["book", "pen", "ink", "lamp", "mug", "cable", "chair", "fan"]
#: Chance a session step deletes an item already in the cart.
DELETE_PROBABILITY = 0.25


def random_cart_sessions(
    rng: random.Random,
    num_sessions: int,
    steps_per_session: Tuple[int, int] = (2, 6),
) -> List[CartSessionPlan]:
    """Sessions mixing ADDs, CHANGEs and DELETEs over a small catalog."""
    plans = []
    for session_index in range(num_sessions):
        steps: List[Tuple[str, str, int]] = []
        in_cart: List[str] = []
        for _ in range(rng.randint(*steps_per_session)):
            roll = rng.random()
            if in_cart and roll < DELETE_PROBABILITY:
                item = rng.choice(in_cart)
                in_cart.remove(item)
                steps.append(("DELETE", item, 0))
            elif in_cart and roll < DELETE_PROBABILITY + 0.2:
                steps.append(("CHANGE", rng.choice(in_cart), rng.randint(1, 4)))
            else:
                item = rng.choice(_ITEMS)
                if item not in in_cart:
                    in_cart.append(item)
                steps.append(("ADD", item, rng.randint(1, 3)))
        plans.append(CartSessionPlan(f"session-{session_index}", steps))
    return plans
