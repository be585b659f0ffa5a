"""Cart ops are shared, never copied.

The op-centric blob holds the ``CartOp`` objects themselves: the op that
``CartService.add`` returns is the entry every owner's stored blob ends
with, and a sibling merge keeps the entries it unions, not copies of them.
"""

from repro.cart import CartOp, CartService, OpCartStrategy
from repro.dynamo import DynamoCluster


def test_every_owner_stores_the_op_that_add_returned():
    cluster = DynamoCluster(num_nodes=5, n=3, r=2, w=2, seed=7)
    service = CartService(cluster, OpCartStrategy(), client=cluster.client("shopper"))
    cluster.sim.run()  # every endpoint's start step
    op = cluster.sim.run_process(service.add("cart", "book"))
    owners = cluster.ring.intended_owners("cart", cluster.n)
    assert len(owners) == 3
    for owner in owners:
        (stored,) = cluster.nodes[owner].versions_of("cart")
        assert stored.value[-1] is op


def test_a_merge_of_divergent_siblings_holds_every_op_itself():
    strategy = OpCartStrategy()
    book = CartOp("ADD", "book", 1, uniquifier="add-book", time=1.0)
    unbook = CartOp("DELETE", "book", uniquifier="del-book", time=2.0)
    pen = CartOp("ADD", "pen", 1, uniquifier="add-pen", time=3.0)
    ink = CartOp("ADD", "ink", 1, uniquifier="add-ink", time=2.5)
    base = strategy.apply(strategy.empty(), book)
    left = strategy.apply(strategy.apply(base, unbook), pen)
    right = strategy.apply(base, ink)
    merged = strategy.merge([left, right])
    assert [id(entry) for entry in merged] == [id(book), id(unbook), id(pen), id(ink)]
    assert strategy.view(merged) == {"pen": 1, "ink": 1}
