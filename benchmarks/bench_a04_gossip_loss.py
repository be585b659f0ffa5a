"""Ablation A4 — anti-entropy robustness to message loss (§7.6).

Gossip's virtue is that no individual exchange matters: a lost digest or
delta just delays convergence. Sweep link loss probability and measure
time-to-convergence on the networked gossip runtime — it degrades
gracefully rather than failing.
"""

from repro.analysis import Table
from repro.core import Operation, TypeRegistry
from repro.gossip import GossipCluster
from repro.net.network import LinkConfig
from repro.net.latency import FixedLatency


def counter_registry():
    registry = TypeRegistry(initial_state=dict)
    registry.register(
        "ADD", lambda s, op: {**s, "total": s.get("total", 0) + op.args["amount"]}
    )
    return registry


def run_point(loss, seed, num_replicas=4, horizon=120.0):
    cluster = GossipCluster(
        counter_registry(), num_replicas=num_replicas, period=1.0, seed=seed
    )
    cluster.network.default_link = LinkConfig(
        latency=FixedLatency(0.005), loss_probability=loss
    )
    for index, name in enumerate(cluster.nodes):
        cluster.submit(name, Operation("ADD", {"amount": index + 1}))
    for node in cluster.nodes.values():
        node.run(until=horizon)
    converged_at = None
    step = 1.0
    when = step
    while when <= horizon:
        cluster.sim.run(until=when)
        if cluster.converged():
            converged_at = when
            break
        when += step
    return {
        "converged_at": converged_at if converged_at is not None else horizon,
        "converged": converged_at is not None,
    }


def run_sweep():
    rows = []
    for loss in (0.0, 0.2, 0.5, 0.8):
        points = [run_point(loss, seed) for seed in range(3)]
        n = len(points)
        rows.append(
            (loss,
             sum(p["converged_at"] for p in points) / n,
             all(p["converged"] for p in points))
        )
    return rows


def test_a04_gossip_loss():
    rows = run_sweep()
    table = Table(
        "A4  Gossip convergence vs link loss (4 replicas, 1s period)",
        ["loss probability", "avg time to converge s", "always converged"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    # Shape: loss delays convergence but never prevents it.
    assert all(row[2] for row in rows)
    assert rows[0][1] <= rows[-1][1]
    assert rows[-1][1] > rows[0][1]
