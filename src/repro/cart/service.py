"""The cart application over Dynamo: GET, reconcile, fold in, PUT.

§6.1's loop verbatim: "A subsequent PUT must include a blob that
integrates and reconciles all the presented versions."
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.cart.operations import CartOp
from repro.cart.strategies import CartStrategy
from repro.dynamo.cluster import DynamoClient, DynamoCluster


class CartService:
    """One shopper's session against the cart store."""

    def __init__(
        self,
        cluster: DynamoCluster,
        strategy: CartStrategy,
        client: Optional[DynamoClient] = None,
    ) -> None:
        self.cluster = cluster
        self.strategy = strategy
        self.client = client or cluster.client()
        self.sim = cluster.sim
        # The session's memory of what it last wrote, per cart. When a
        # partition makes a GET miss our own previous PUT, the stale
        # frontier alone would rebuild the cart without our earlier ops;
        # folding the remembered blob in keeps the session's own history
        # in every write (the §2.1 stance: the client remembers its work).
        self._last_written: dict = {}

    # ------------------------------------------------------------------

    def add(self, cart_key: str, item: str) -> Generator[Any, Any, CartOp]:
        op = CartOp("ADD", item, 1, time=self.sim.now)
        yield from self._fold_in(cart_key, op)
        return op

    def delete(self, cart_key: str, item: str) -> Generator[Any, Any, CartOp]:
        op = CartOp("DELETE", item, time=self.sim.now)
        yield from self._fold_in(cart_key, op)
        return op

    def view(self, cart_key: str) -> Generator[Any, Any, Dict[str, int]]:
        """The cart as the shopper sees it: reconcile whatever siblings
        the GET presents, then materialize."""
        result = yield from self.client.get(cart_key)
        blob = self._reconcile(result.values)
        return self.strategy.view(blob)

    # ------------------------------------------------------------------

    def _fold_in(self, cart_key: str, op: CartOp) -> Generator[Any, Any, None]:
        result = yield from self.client.get(cart_key)
        values = list(result.values)
        if cart_key in self._last_written:
            values.append(self._last_written[cart_key])
        blob = self._reconcile(values)
        blob = self.strategy.apply(blob, op)
        yield from self.client.put(cart_key, blob, context=result.context)
        self._last_written[cart_key] = blob
        self.sim.metrics.inc("cart.ops")

    def _reconcile(self, sibling_values: list) -> Any:
        if not sibling_values:
            return self.strategy.empty()
        if len(sibling_values) > 1:
            self.sim.metrics.inc("cart.reconciliations")
        return self.strategy.merge(sibling_values)
