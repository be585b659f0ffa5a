"""E7 — What's your stomach for risk? The $10,000 check (§5.5, §5.8).

Claim: per-operation risk policies trade latency for exposure. Clearing
locally is fast but probabilistic; coordinating ("double check with all
the replicas") is slow but crisp. The threshold slides the trade.

Two clearing branches; a check stream with a tail of big checks; sweep
the coordination threshold. Latency charge: LOCAL = 5ms; COORDINATED =
5ms + one 40ms WAN round trip per consulted branch.
"""

import math

from repro.analysis import Table
from repro.bank import ClearOutcome, ReplicatedBank
from repro.workload import CheckStream

LOCAL_MS = 5.0
WAN_RTT_MS = 40.0


def run_point(threshold, seed, checks=60, initial=20_000.0):
    import random

    rng = random.Random(seed)
    bank = ReplicatedBank(
        initial_deposit=initial,
        coordination_threshold=threshold if math.isfinite(threshold) else None,
    )
    stream = CheckStream(rng, low=50.0, high=800.0, big_fraction=0.15,
                         big_amount=12_000.0)
    latencies = []
    value_at_risk = 0.0
    cleared = 0
    bounced = 0
    for index in range(checks):
        check = stream.next_check()
        branch = "branch0" if index % 2 == 0 else "branch1"
        coordinated = (
            bank.risk_policy is not None
            and bank.risk_policy.requires_coordination(
                _op_for(check)
            )
        )
        outcome = bank.clear_check(branch, check)
        latencies.append(LOCAL_MS + (WAN_RTT_MS if coordinated else 0.0))
        if outcome is ClearOutcome.CLEARED:
            cleared += 1
            if not coordinated:
                value_at_risk += check.amount
        elif outcome is ClearOutcome.BOUNCED:
            bounced += 1
    bank.reconcile()
    return {
        "mean_latency_ms": sum(latencies) / len(latencies),
        "value_at_risk": value_at_risk,
        "overdrafts": bank.overdraft_count(),
        "cleared": cleared,
        "bounced": bounced,
    }


def _op_for(check):
    from repro.core import Operation

    return Operation("CLEAR_CHECK", {"amount": check.amount},
                     uniquifier=check.uniquifier)


def run_sweep():
    rows = []
    for label, threshold in (
        ("coordinate all ($0)", 0.0),
        ("threshold $500", 500.0),
        ("threshold $10,000", 10_000.0),
        ("never coordinate", math.inf),
    ):
        points = [run_point(threshold, seed) for seed in range(5)]
        n = len(points)
        rows.append(
            (label,
             sum(p["mean_latency_ms"] for p in points) / n,
             sum(p["value_at_risk"] for p in points) / n,
             sum(p["overdrafts"] for p in points) / n)
        )
    return rows


def test_e07_risk_threshold():
    rows = run_sweep()
    table = Table(
        "E7  Coordination threshold: latency vs $ cleared on local guesses",
        ["policy", "mean clear latency ms", "$ cleared locally", "overdraft apologies"],
    )
    for label, latency, at_risk, overdrafts in rows:
        table.add_row(label, latency, at_risk, overdrafts)
    table.print()
    by_label = {row[0]: row for row in rows}
    # Shape: latency falls and exposure rises as the threshold climbs.
    assert by_label["coordinate all ($0)"][1] > by_label["threshold $10,000"][1]
    assert by_label["coordinate all ($0)"][2] == 0.0
    assert (
        by_label["threshold $500"][2]
        <= by_label["threshold $10,000"][2]
        <= by_label["never coordinate"][2]
    )
    assert by_label["never coordinate"][1] == LOCAL_MS
