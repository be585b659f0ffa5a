"""Cart service over the Dynamo cluster, including partition anomalies."""

import pytest

from repro.cart import (
    CartService,
    LwwCartStrategy,
    MaterializedCartStrategy,
    OpCartStrategy,
)
from repro.dynamo import DynamoCluster


@pytest.fixture(params=["op", "materialized", "lww"])
def strategy(request):
    return {
        "op": OpCartStrategy(),
        "materialized": MaterializedCartStrategy(),
        "lww": LwwCartStrategy(),
    }[request.param]


def test_single_shopper_flow(strategy):
    cluster = DynamoCluster(seed=3)
    service = CartService(cluster, strategy)

    def shop():
        yield from service.add("cart:alice", "book")
        yield from service.add("cart:alice", "pen")
        yield from service.delete("cart:alice", "pen")
        cart = yield from service.view("cart:alice")
        return cart

    assert cluster.sim.run_process(shop()) == {"book": 1}


def test_two_sessions_sequential_share_cart(strategy):
    cluster = DynamoCluster(seed=3)
    phone = CartService(cluster, strategy)
    laptop = CartService(cluster, strategy)

    def shop():
        yield from phone.add("cart:alice", "book")
        yield from laptop.add("cart:alice", "pen")
        cart = yield from laptop.view("cart:alice")
        return cart

    assert cluster.sim.run_process(shop()) == {"book": 1, "pen": 1}


def concurrent_blind_sessions(strategy, seed=4):
    """Two clients write the same cart without seeing each other (blind
    contexts) — the sibling scenario."""
    cluster = DynamoCluster(seed=seed)
    first = CartService(cluster, strategy)
    second = CartService(cluster, strategy)

    def shop():
        # Both sessions read the (empty) cart, then write blind.
        op_a = yield from first.add("cart:x", "book")
        # Second client: simulate staleness by using a fresh client whose
        # GET raced the first PUT — emulate with direct blind put.
        result = yield from second.client.get("cart:x")
        del result
        yield from second.add("cart:x", "pen")
        cart = yield from first.view("cart:x")
        return cart

    return cluster, cluster.sim.run_process(shop())


def test_op_cart_survives_concurrency():
    _cluster, cart = concurrent_blind_sessions(OpCartStrategy())
    assert cart == {"book": 1, "pen": 1}


def test_view_empty_cart(strategy):
    cluster = DynamoCluster(seed=3)
    service = CartService(cluster, strategy)

    def shop():
        cart = yield from service.view("cart:nobody")
        return cart

    assert cluster.sim.run_process(shop()) == {}


def test_reconciliation_counter_ticks_on_siblings():
    cluster = DynamoCluster(seed=5)
    service = CartService(cluster, OpCartStrategy())
    alice = cluster.client("alice")
    bob = cluster.client("bob")

    def shop():
        # Manufacture true siblings with two blind writers.
        yield from alice.put("cart:x", [
            {"kind": "ADD", "item": "book", "quantity": 1, "uniquifier": "a", "time": 1.0}
        ])
        yield from bob.put("cart:x", [
            {"kind": "ADD", "item": "pen", "quantity": 1, "uniquifier": "b", "time": 1.0}
        ])
        cart = yield from service.view("cart:x")
        return cart

    cart = cluster.sim.run_process(shop())
    assert cart == {"book": 1, "pen": 1}
    assert cluster.sim.metrics.counter("cart.reconciliations").value >= 1
