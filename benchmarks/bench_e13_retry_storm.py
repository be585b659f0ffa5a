"""Experiment E13 — retry storm vs backoff + breaker (§2.1 / §7).

The paper's retry discipline assumes retries are *cheap*: same
uniquifier, dedup on the server, "the work requested is only done once".
The assumption breaks when the application layer forgets it already
asked and resubmits timed-out requests as new work: under a slow-server
window, fixed-timer reissue multiplies offered load exactly when
capacity fell, and goodput collapses (the retry storm / metastable
failure shape).

The same workload through the resilience stack — exponential backoff
with seeded jitter, an overall deadline carried in the payload, a
per-destination circuit breaker, server-side admission control with a
degraded-mode stale answer, and in-handler expired-work shedding —
degrades gracefully: goodput inside the fault window stays within a
small factor of the offered rate.

Claim reproduced: resilient in-window goodput >= 2x naive (measured:
typically >= 20x), with zero invariant violations either way.
"""

from repro.analysis import Table
from repro.chaos.plan import ChaosPlan
from repro.chaos.retrystorm import RetryStormScenario


def run_point(policy, seed):
    scenario = RetryStormScenario(policy=policy)
    report = scenario.run(seed, ChaosPlan())
    counters = report.counters
    window = scenario.slow_end - scenario.slow_start
    return {
        "ok_window": counters.get("chaos.retrystorm.ok_window", 0.0),
        "goodput_window": counters.get("chaos.retrystorm.ok_window", 0.0) / window,
        "ok_total": counters.get("chaos.retrystorm.ok", 0.0),
        "degraded": counters.get("chaos.retrystorm.ok_degraded", 0.0),
        "reissues": counters.get("chaos.retrystorm.reissues", 0.0),
        "give_ups": counters.get("chaos.retrystorm.give_ups", 0.0)
        + counters.get("chaos.retrystorm.breaker_give_ups", 0.0),
        "shed": counters.get("resilience.admission.server.shed_busy", 0.0)
        + counters.get("chaos.retrystorm.shed_late", 0.0),
        "violations": len(report.violations),
    }


def run_comparison(seeds=(0, 1, 2)):
    rows = {}
    for policy in ("naive", "resilient"):
        points = [run_point(policy, seed) for seed in seeds]
        n = len(points)
        rows[policy] = {
            key: sum(p[key] for p in points) / n for key in points[0]
        }
    return rows


def test_e13_retry_storm():
    rows = run_comparison()
    table = Table(
        "E13  Retry storm vs backoff+breaker "
        "(8 clients, 20x slow server for 10s)",
        ["policy", "goodput in window /s", "total ok", "degraded",
         "reissues", "give-ups", "shed", "violations"],
    )
    for policy in ("naive", "resilient"):
        row = rows[policy]
        table.add_row(
            policy, round(row["goodput_window"], 2), row["ok_total"],
            row["degraded"], row["reissues"], row["give_ups"], row["shed"],
            row["violations"],
        )
    table.print()
    naive, resilient = rows["naive"], rows["resilient"]
    # Shape: the storm collapses in-window goodput; the stack sustains it.
    assert resilient["ok_window"] >= 2 * max(naive["ok_window"], 1.0)
    assert naive["reissues"] > 0          # the storm actually stormed
    assert resilient["reissues"] == 0     # one logical request, one identity
    assert resilient["shed"] > 0          # admission control took load off
    # Correctness invariants hold under BOTH disciplines.
    assert naive["violations"] == 0
    assert resilient["violations"] == 0
