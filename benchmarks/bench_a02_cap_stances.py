"""Ablation A2 — CAP stances during a partition window (§8).

Offered increments at both sites through a partition; measure
availability (accepted / offered), updates lost at healing, and whether
the sites agree afterwards. The paper's point: relaxing classic
consistency to ACID 2.0 (AP-ops) buys availability *without* the loss
that storage-centric AP (LWW) pays.
"""

import random

from repro.analysis import Table
from repro.cap import CapCell, Stance


def run_stance(stance, seed, offered_per_side=50):
    rng = random.Random(seed)
    cell = CapCell(stance)
    cell.partition()
    for i in range(offered_per_side):
        at = float(i)
        cell.increment("east", rng.randint(1, 5), f"e{i}", at=at)
        cell.increment("west", rng.randint(1, 5), f"w{i}", at=at + 0.5)
    cell.heal()
    offered = 2 * offered_per_side
    final = cell.read("east")
    return {
        "availability": cell.accepted / offered,
        "lost_updates": len(cell.lost_updates),
        "consistent_after": cell.consistent(),
        "value_deficit": cell.total_accepted_amount - (final or 0.0),
    }


def run_sweep():
    results = {}
    for stance in Stance:
        points = [run_stance(stance, seed) for seed in range(5)]
        n = len(points)
        results[stance] = {
            "availability": sum(p["availability"] for p in points) / n,
            "lost_updates": sum(p["lost_updates"] for p in points) / n,
            "consistent_after": all(p["consistent_after"] for p in points),
            "value_deficit": sum(p["value_deficit"] for p in points) / n,
        }
    return results


def test_a02_cap_stances():
    results = run_sweep()
    table = Table(
        "A2  One partition window, increments offered at both sites",
        ["stance", "availability", "updates lost at heal",
         "$ value silently dropped", "consistent after heal"],
    )
    for stance, point in results.items():
        table.add_row(
            stance.value, point["availability"], point["lost_updates"],
            point["value_deficit"], point["consistent_after"],
        )
    table.print()
    cp = results[Stance.CP]
    lww = results[Stance.AP_LWW]
    ops = results[Stance.AP_OPS]
    # CP: half-available, lossless. AP-LWW: fully available, lossy.
    # AP-ops: fully available AND lossless — the paper's corner.
    assert cp["availability"] == 0.5 and cp["lost_updates"] == 0
    assert lww["availability"] == 1.0 and lww["lost_updates"] > 0
    assert ops["availability"] == 1.0 and ops["lost_updates"] == 0
    assert ops["value_deficit"] == 0.0
    assert all(point["consistent_after"] for point in results.values())
