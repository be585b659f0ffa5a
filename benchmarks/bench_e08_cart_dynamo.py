"""E8 — The shopping cart on Dynamo: who loses adds, who resurrects
deletes (§6.1, §6.4, §6.5).

Claims: operation-centric carts reconcile siblings with nothing lost;
the Dynamo-paper materialized cart keeps every add but "occasionally
deleted items will reappear"; treating the cart as an opaque WRITE
(last-writer-wins) silently drops concurrent adds.

Workload: pairs of concurrent blind sessions against shared carts (the
sibling-producing pattern), compared to the ground truth of applying all
operations sequentially.
"""

import random

from repro.analysis import Table
from repro.cart import (
    CartOp,
    CartService,
    LwwCartStrategy,
    MaterializedCartStrategy,
    OpCartStrategy,
    compare_to_truth,
)
from repro.cart.anomalies import aggregate
from repro.dynamo import DynamoCluster
from repro.workload import random_cart_sessions


def run_strategy(strategy, seed=9, num_carts=12):
    cluster = DynamoCluster(seed=seed)
    first = CartService(cluster, strategy)
    second = CartService(cluster, strategy)
    rng = random.Random(seed)
    plans = random_cart_sessions(rng, num_carts * 2, steps_per_session=(3, 6))
    truth_ops = {}

    def run_pair(cart_key, plan_a, plan_b):
        """Both sessions GET the same (shared) cart state, then apply
        their steps blind — manufacturing siblings."""
        ops = []

        def session(service, plan, t0):
            for offset, (kind, item, qty) in enumerate(plan.steps):
                op = CartOp(kind, item, qty if qty else 1, time=t0 + offset)
                ops.append(op)
                blob_result = yield from service.client.get(cart_key)
                blob = (
                    strategy.merge(blob_result.values)
                    if blob_result.values
                    else strategy.empty()
                )
                blob = strategy.apply(blob, op)
                # Blind put: reuse the stale (empty) context to collide.
                yield from service.client.put(cart_key, blob, context=blob_result.context)

        def pair():
            proc_a = cluster.sim.spawn(session(first, plan_a, 0.0))
            proc_b = cluster.sim.spawn(session(second, plan_b, 0.5))
            yield proc_a
            yield proc_b

        cluster.sim.run_process(pair())
        truth_ops[cart_key] = ops

    for index in range(num_carts):
        run_pair(f"cart:{index}", plans[2 * index], plans[2 * index + 1])

    reports = []
    for cart_key, ops in truth_ops.items():
        def view():
            cart = yield from first.view(cart_key)
            return cart

        observed = cluster.sim.run_process(view())
        reports.append(compare_to_truth(observed, ops))
    totals = aggregate(reports)
    return {
        "lost_adds": totals["lost"] + totals["shorted"],
        "resurrections": totals["resurrected"],
    }


def run_all():
    return {
        "op-centric": run_strategy(OpCartStrategy()),
        "materialized": run_strategy(MaterializedCartStrategy()),
        "lww": run_strategy(LwwCartStrategy()),
    }


def test_e08_cart_dynamo():
    results = run_all()
    table = Table(
        "E8  Cart anomalies across 12 shared carts with concurrent sessions",
        ["strategy", "items lost/shorted", "deleted items resurrected"],
    )
    for name, counts in results.items():
        table.add_row(name, counts["lost_adds"], counts["resurrections"])
    table.print()
    # Shape: op-centric is clean; materialized resurrects deletes but
    # keeps adds; LWW loses adds.
    assert results["op-centric"]["lost_adds"] == 0
    assert results["op-centric"]["resurrections"] == 0
    assert results["materialized"]["resurrections"] > 0
    assert results["lww"]["lost_adds"] > results["op-centric"]["lost_adds"]
    assert results["lww"]["lost_adds"] > 0
