"""AdaptiveRiskPolicy: the threshold slides with the apology rate."""

import pytest

from repro.core import AdaptiveRiskPolicy, Enforcement, Operation


def op(amount):
    return Operation("CLEAR_CHECK", {"amount": amount})


def tuned(target, window, *args, **kwargs):
    """A policy with another target and a shorter window than the
    production one, so a test fills a window in a few outcomes."""
    cls = type("Tuned", (AdaptiveRiskPolicy,),
               {"target_apology_rate": target, "window": window})
    return cls(*args, **kwargs)


def test_validation():
    with pytest.raises(ValueError):
        AdaptiveRiskPolicy(100.0, adjustment_factor=1.0)


def test_behaves_like_threshold_policy_initially():
    policy = AdaptiveRiskPolicy(100.0)
    assert policy.enforcement_for(op(50)) is Enforcement.LOCAL
    assert policy.enforcement_for(op(100)) is Enforcement.COORDINATED


def test_hot_apology_rate_tightens_threshold():
    policy = tuned(0.05, 10, 100.0, adjustment_factor=2.0)
    for _ in range(10):
        policy.record_outcome(caused_apology=True)  # 100% rate: way hot
    assert policy.threshold == 50.0
    assert policy.adjustments == 1


def test_cold_apology_rate_relaxes_threshold():
    policy = tuned(0.5, 10, 100.0, adjustment_factor=2.0)
    for _ in range(10):
        policy.record_outcome(caused_apology=False)
    assert policy.threshold == 200.0


def test_on_target_rate_leaves_threshold_alone():
    policy = tuned(0.3, 10, 100.0, adjustment_factor=2.0)
    outcomes = [True, True, True] + [False] * 7  # 30% — exactly on target
    for outcome in outcomes:
        policy.record_outcome(outcome)
    assert policy.threshold == 100.0
    assert policy.adjustments == 0


def test_threshold_respects_bounds():
    policy = tuned(0.01, 5, 10.0, adjustment_factor=10.0,
                   min_threshold=5.0, max_threshold=20.0)
    for _ in range(5):
        policy.record_outcome(True)
    assert policy.threshold == 5.0
    for _ in range(3):
        for _ in range(5):
            policy.record_outcome(False)
    assert policy.threshold == 20.0


def test_window_resets_between_adjustments():
    policy = tuned(AdaptiveRiskPolicy.target_apology_rate, 10, 100.0)
    for _ in range(9):
        policy.record_outcome(False)
    assert policy.recent_count == 9
    policy.record_outcome(False)
    assert policy.recent_count == 0


def test_closed_loop_converges_toward_target():
    """Simulated world: P(apology | guess) grows with the threshold (more
    local guessing = more mess). The controller should settle near the
    threshold where the rate crosses the 2% target."""
    import random

    rng = random.Random(5)
    policy = tuned(0.02, 40, 1000.0, adjustment_factor=1.3,
                   min_threshold=10.0, max_threshold=100_000.0)
    def apology_probability(threshold):
        return min(0.5, threshold / 10_000.0)  # 2% at threshold 200

    for _ in range(80):
        for _ in range(40):
            policy.record_outcome(rng.random() < apology_probability(policy.threshold))
    assert 50.0 <= policy.threshold <= 800.0  # settled around the 2% point
