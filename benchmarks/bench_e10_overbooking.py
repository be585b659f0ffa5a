"""E10 — Over-booking vs over-provisioning (§7.1).

Claims: over-provisioning "cannot make the mistake of allocating a
resource that is not truly available" but declines business; over-booking
books more and "sometimes commitments are made that cannot be kept"; and
you can slide between the postures.

Two disconnected replicas sell 100 units; sweep demand and θ.
"""

import random

from repro.analysis import Table
from repro.resources import AllocationOutcome, InventorySystem


def run_point(theta, demand_per_replica, seed, capacity=100.0):
    rng = random.Random(seed)
    inv = InventorySystem(capacity, ["east", "west"], theta=theta)
    for i in range(demand_per_replica):
        inv.request("east", f"e{i}")
        inv.request("west", f"w{i}")
        # Occasional moments of connectivity at low probability.
        if rng.random() < 0.02:
            inv.sync("east", "west")
    inv.sync_all()
    return {
        "granted": inv.granted,
        "declined": inv.declined,
        "oversold": inv.oversold(),
        "unsold": inv.unsold(),
    }


def run_sweep():
    rows = []
    for demand in (40, 60, 100):
        for theta in (0.0, 0.5, 1.0):
            points = [run_point(theta, demand, seed) for seed in range(5)]
            n = len(points)
            rows.append(
                (demand * 2, theta,
                 sum(p["granted"] for p in points) / n,
                 sum(p["declined"] for p in points) / n,
                 sum(p["oversold"] for p in points) / n,
                 sum(p["unsold"] for p in points) / n)
            )
    return rows


def test_e10_overbooking():
    rows = run_sweep()
    table = Table(
        "E10  100 units, 2 mostly-disconnected replicas: the posture slider",
        ["total demand", "theta", "granted", "declined", "oversold (apologies)", "unsold"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    by_key = {(int(d), t): row for d, t, *rest in rows for row in [(d, t, *rest)]}
    # Shape at demand 200 (2x capacity): θ=0 never oversells but declines
    # plenty; θ=1 grants the most and oversells; θ=0.5 in between.
    hot = {t: by_key[(200, t)] for t in (0.0, 0.5, 1.0)}
    assert hot[0.0][4] == 0.0  # over-provisioning: zero apologies
    assert hot[1.0][4] > 0.0  # over-booking: apologies
    assert hot[0.0][3] >= hot[1.0][3]  # and fewer declines when booking
    assert hot[0.0][2] <= hot[0.5][2] <= hot[1.0][2]  # the slider
    # At demand below per-replica quota, every posture is clean.
    mild = {t: by_key[(80, t)] for t in (0.0, 1.0)}
    assert mild[0.0][4] == mild[1.0][4] == 0.0
