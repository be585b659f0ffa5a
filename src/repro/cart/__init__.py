"""The shopping cart on Dynamo (§6.1).

Three ways to store a cart blob, spanning the paper's argument in §6.4
("storage systems alone cannot provide the commutativity we need"):

- :class:`OpCartStrategy` — **operation-centric**: the blob is the list of
  uniquified ADD-TO-CART / CHANGE-NUMBER / DELETE-FROM-CART operations,
  the :class:`CartOp` objects themselves: an op is shared by every blob
  that holds it and never mutated. Sibling merge is op-union. Nothing is
  ever lost; the fold is order-independent.
- :class:`MaterializedCartStrategy` — what the Dynamo paper's cart really
  did: the blob is the materialized item map; merge is item-set union.
  Adds survive merges, but a concurrently-deleted item *reappears* —
  "occasionally deleted items will reappear."
- :class:`LwwCartStrategy` — the storage-centric strawman: merge keeps
  one sibling (latest timestamp). Concurrent adds are silently lost.

:class:`CartService` runs any strategy over a
:class:`~repro.dynamo.DynamoCluster`.
"""

from repro.cart.operations import CartOp, materialize
from repro.cart.strategies import (
    CartStrategy,
    OpCartStrategy,
    MaterializedCartStrategy,
    LwwCartStrategy,
)
from repro.cart.service import CartService
from repro.cart.anomalies import CartAnomalies, compare_to_truth

__all__ = [
    "CartAnomalies",
    "compare_to_truth",
    "CartOp",
    "materialize",
    "CartStrategy",
    "OpCartStrategy",
    "MaterializedCartStrategy",
    "LwwCartStrategy",
    "CartService",
]
