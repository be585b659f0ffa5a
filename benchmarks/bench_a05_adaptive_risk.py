"""Ablation A5 — managing the probabilities (§5.5, §5.6).

"The application will usually be managing the probabilities so that this
is unlikely (since there is frequently a business cost associated with
screwing up)." A fixed threshold picks one point on the latency/apology
curve; the adaptive policy *finds* the threshold whose apology rate
matches the business target, and tracks it when the environment shifts.
"""

import random

from repro.analysis import Table
from repro.core import AdaptiveRiskPolicy, Operation, ThresholdRiskPolicy

LOCAL_MS = 5.0
WAN_MS = 40.0


def world_apology_probability(threshold, riskiness):
    """A synthetic environment: the more value you guess on locally (the
    higher the threshold), the more often the guess goes bad; `riskiness`
    scales the environment's volatility."""
    return min(0.6, riskiness * threshold / 10_000.0)


def run_fixed(threshold, riskiness, rng, ops=2000):
    apologies = 0
    coordinated = 0
    for _ in range(ops):
        amount = rng.uniform(0.0, 2000.0)
        if amount >= threshold:
            coordinated += 1
        elif rng.random() < world_apology_probability(threshold, riskiness):
            apologies += 1
    latency = (coordinated * (LOCAL_MS + WAN_MS) + (ops - coordinated) * LOCAL_MS) / ops
    return apologies / ops, latency


def run_adaptive(riskiness, rng, ops=2000):
    policy = AdaptiveRiskPolicy(
        1000.0, adjustment_factor=1.3, min_threshold=10.0, max_threshold=5000.0,
    )
    apologies = 0
    coordinated = 0
    for _ in range(ops):
        amount = rng.uniform(0.0, 2000.0)
        op = Operation("CLEAR", {"amount": amount})
        if policy.requires_coordination(op):
            coordinated += 1
        else:
            went_bad = rng.random() < world_apology_probability(
                policy.threshold, riskiness
            )
            if went_bad:
                apologies += 1
            policy.record_outcome(went_bad)
    latency = (coordinated * (LOCAL_MS + WAN_MS) + (ops - coordinated) * LOCAL_MS) / ops
    return apologies / ops, latency, policy.threshold


def run_sweep():
    rows = []
    for riskiness, label in ((1.0, "calm world"), (4.0, "risky world")):
        rng = random.Random(11)
        fixed_rate, fixed_latency = run_fixed(1000.0, riskiness, rng)
        rng = random.Random(11)
        adaptive_rate, adaptive_latency, final_threshold = run_adaptive(
            riskiness, rng
        )
        rows.append((label, "fixed $1000", fixed_rate, fixed_latency, 1000.0))
        rows.append(
            (label, "adaptive (target 2%)", adaptive_rate, adaptive_latency,
             final_threshold)
        )
    return rows


def test_a05_adaptive_risk():
    rows = run_sweep()
    table = Table(
        "A5  Fixed vs adaptive coordination threshold (apology target 2%)",
        ["environment", "policy", "apology rate", "mean latency ms",
         "final threshold"],
    )
    for row in rows:
        table.add_row(*row)
    table.print()
    results = {(row[0], row[1]): row for row in rows}
    calm_fixed = results[("calm world", "fixed $1000")]
    risky_fixed = results[("risky world", "fixed $1000")]
    risky_adaptive = results[("risky world", "adaptive (target 2%)")]
    calm_adaptive = results[("calm world", "adaptive (target 2%)")]
    # Shape: the fixed threshold blows its apology budget when the world
    # turns risky; the adaptive policy holds near the target in both
    # worlds by moving its threshold.
    assert risky_fixed[2] > 0.1
    assert risky_adaptive[2] < 0.06
    assert calm_adaptive[2] < 0.06
    assert risky_adaptive[4] < calm_adaptive[4]  # tightened when risky
