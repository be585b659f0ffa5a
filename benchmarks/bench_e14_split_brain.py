"""Experiment E14 — fenced vs unfenced automatic takeover (§2–3).

The paper's takeover premise: "the backup cannot distinguish a dead
primary from a slow one". This experiment takes the guess seriously
twice over.

**Part A — the wrong guess, made safe.** Partition the serving site
away from backup + clients + monitor without killing it. The detector
convicts (wrongly — the primary is alive, and the post-heal heartbeat
proves it: ``failover.false_convictions``), the controller promotes the
backup, and the deposed primary keeps acking writes behind the
partition. When the partition heals, its shipper replays the deposed
regime's tail into the new primary:

- unfenced: acked post-takeover writes are clobbered — lost updates > 0;
- fenced: every stale batch bounces off the epoch token — exactly 0.

**Part B — the guess's price curve.** Detection latency and false
takeovers trade off against each other through the conviction timeout:
a patient detector (large timeout multiple) convicts a dead-seeming
primary slowly but almost never wrongly; a twitchy one converts
heartbeat loss into spurious takeovers. Measured: latency grows
linearly with the timeout multiple while the false-takeover rate under
lossy heartbeats falls to zero.

Claim reproduced: unfenced lost updates > 0; fenced exactly 0;
deterministic per seed; tradeoff curve monotone both ways.
"""

from repro.analysis import Table
from repro.chaos.plan import ChaosPlan
from repro.chaos.splitbrain import SplitBrainScenario
from repro.failover import HEARTBEAT_INTERVAL as HEARTBEAT


def run_policy_point(policy, seed):
    scenario = SplitBrainScenario(policy=policy)
    report = scenario.run(seed, ChaosPlan())
    counters = report.counters
    return {
        "lost_updates": counters.get("chaos.splitbrain.lost_updates", 0.0),
        "stale_acks": counters.get("chaos.splitbrain.stale_acks", 0.0),
        "stale_rejected": counters.get("logship.stale_epoch_rejected", 0.0),
        "in_doubt": counters.get("logship.in_doubt_commits", 0.0),
        "takeovers": counters.get("logship.takeovers", 0.0),
        "false_convictions": counters.get("failover.false_convictions", 0.0),
        "detect_latency": scenario.detection_latency or 0.0,
        "violations": len(report.violations),
    }


def run_policy_comparison(seeds=(0, 1, 2)):
    rows = {}
    for policy in ("unfenced", "fenced"):
        points = [run_policy_point(policy, seed) for seed in seeds]
        n = len(points)
        rows[policy] = {
            key: sum(p[key] for p in points) / n for key in points[0]
        }
    return rows


def run_tradeoff_point(timeout_multiple, seed):
    """One detector configuration, measured both ways: detection latency
    under a real partition, false takeovers under lossy heartbeats with
    NO partition (any conviction there is by definition wrong)."""
    timeout = timeout_multiple * HEARTBEAT
    latency_run = SplitBrainScenario(policy="fenced", detect_timeout=timeout)
    latency_run.run(seed, ChaosPlan())

    flaky_run = SplitBrainScenario(
        policy="fenced", detect_timeout=timeout,
        partition_start=None, heartbeat_loss=0.5,
    )
    flaky_run.run(seed, ChaosPlan())
    return {
        "detect_latency": latency_run.detection_latency,
        "false_takeover": 1.0 if flaky_run.false_takeover else 0.0,
    }


def run_tradeoff_sweep(multiples=(2, 4, 8, 16), seeds=(0, 1, 2)):
    rows = {}
    for multiple in multiples:
        points = [run_tradeoff_point(multiple, seed) for seed in seeds]
        detected = [p["detect_latency"] for p in points
                    if p["detect_latency"] is not None]
        rows[multiple] = {
            "detect_latency": (
                sum(detected) / len(detected) if detected else None
            ),
            "false_rate": sum(p["false_takeover"] for p in points) / len(points),
        }
    return rows


def run_all(seeds=(0, 1, 2)):
    return {
        "policies": run_policy_comparison(seeds),
        "tradeoff": run_tradeoff_sweep(seeds=seeds),
    }


def test_e14_split_brain():
    results = run_all()
    rows = results["policies"]

    table = Table(
        "E14  Split-brain takeover: partitioned-but-alive primary "
        "(10s partition, auto takeover)",
        ["policy", "lost updates", "stale acks", "stale rejected",
         "in-doubt", "false convictions", "detect latency s", "violations"],
    )
    for policy in ("unfenced", "fenced"):
        row = rows[policy]
        table.add_row(
            policy, row["lost_updates"], row["stale_acks"],
            row["stale_rejected"], row["in_doubt"],
            row["false_convictions"], round(row["detect_latency"], 3),
            row["violations"],
        )
    table.print()

    tradeoff = results["tradeoff"]
    ttable = Table(
        "E14b Detection latency vs false takeovers "
        "(conviction timeout as multiple of heartbeat, 50% heartbeat loss)",
        ["timeout x hb", "detect latency s", "false-takeover rate"],
    )
    for multiple, row in sorted(tradeoff.items()):
        ttable.add_row(
            multiple,
            None if row["detect_latency"] is None
            else round(row["detect_latency"], 3),
            round(row["false_rate"], 2),
        )
    ttable.print()

    unfenced, fenced = rows["unfenced"], rows["fenced"]
    # The §5.1 hazard: unfenced takeover loses acked updates; the epoch
    # token eliminates them exactly, not approximately.
    assert unfenced["lost_updates"] > 0
    assert fenced["lost_updates"] == 0
    assert fenced["violations"] == 0
    assert fenced["stale_rejected"] > 0       # the fence actually fenced
    # Both policies made the same wrong guess — the primary was alive.
    assert unfenced["false_convictions"] > 0
    assert fenced["false_convictions"] > 0

    # The tradeoff: patience buys correctness at the price of latency.
    multiples = sorted(tradeoff)
    latencies = [tradeoff[m]["detect_latency"] for m in multiples]
    assert all(l is not None for l in latencies)
    assert latencies == sorted(latencies)     # latency grows with patience
    false_rates = [tradeoff[m]["false_rate"] for m in multiples]
    assert all(a >= b for a, b in zip(false_rates, false_rates[1:]))
    assert false_rates[0] > false_rates[-1]   # twitchy guesses wrong; patient doesn't
