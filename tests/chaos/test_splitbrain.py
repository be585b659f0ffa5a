"""Split-brain scenario (E14): determinism, invariants, and the claim.

Fast tests pin the scenario's correctness properties: the fenced policy
stays invariant-clean under the partition, the unfenced ablation is
*caught* by the acked-is-durable rule, runs are bit-identical under a
shared seed, and sweeps fan out without changing a byte. The
``slow``-marked test reproduces the E14 claim shape end to end.
"""

import pytest

from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import ChaosRunner
from repro.chaos.splitbrain import SplitBrainScenario


def run_split(policy, seed, plan=None, **kwargs):
    scenario = SplitBrainScenario(policy=policy, **kwargs)
    report = scenario.run(seed, plan if plan is not None else ChaosPlan())
    return scenario, report


# ----------------------------------------------------------------------
# The two policies under the partition


def test_fenced_run_is_clean():
    scenario, report = run_split("fenced", seed=0)
    assert report.violations == ()
    counters = report.counters
    # The partitioned-but-alive primary was wrongly convicted, promoted
    # around, and its resurrection bounced off the fence.
    assert counters["failover.auto_takeovers"] == 1
    assert counters["failover.false_convictions"] == 1
    assert counters["logship.stale_epoch_rejected"] > 0
    assert counters.get("chaos.splitbrain.lost_updates", 0.0) == 0
    assert scenario.detection_latency is not None
    assert scenario.detection_latency > 0


def test_unfenced_run_is_caught_by_the_invariant():
    scenario, report = run_split("unfenced", seed=0)
    assert report.violations != ()
    assert any(v.invariant == "acked-is-durable" for v in report.violations)
    counters = report.counters
    assert counters["chaos.splitbrain.lost_updates"] > 0
    assert counters.get("logship.stale_epoch_rejected", 0.0) == 0


def test_stale_writer_keeps_getting_acks_from_the_deposed_primary():
    _scenario, report = run_split("fenced", seed=1)
    counters = report.counters
    # During the partition the deposed side acked writes it could never
    # ship — the §2 ambiguity made concrete.
    assert counters["chaos.splitbrain.stale_acks"] > 0
    assert counters["logship.in_doubt_commits"] > 0


def test_no_partition_means_no_takeover():
    scenario, report = run_split("fenced", seed=0, partition_start=None)
    assert report.violations == ()
    assert "failover.auto_takeovers" not in report.counters
    assert scenario.false_takeover is False


def test_epoch_monotonic_invariant_registered():
    _scenario, report = run_split("fenced", seed=2)
    assert report.violations == ()          # it held, under a real takeover


# ----------------------------------------------------------------------
# Determinism


@pytest.mark.parametrize("policy", ["fenced", "unfenced"])
def test_same_seed_same_run(policy):
    _s1, first = run_split(policy, seed=7)
    _s2, second = run_split(policy, seed=7)
    assert first.counters == second.counters
    assert first.violations == second.violations
    assert first.end_time == second.end_time


def test_sweep_serial_vs_parallel_bit_identical():
    seeds = [0, 1, 2]
    serial = ChaosRunner(SplitBrainScenario(policy="fenced")).sweep(
        seeds, processes=1
    )
    fanned = ChaosRunner(SplitBrainScenario(policy="fenced")).sweep(
        seeds, processes=2
    )
    assert serial.reports == fanned.reports
    assert serial.failures == fanned.failures


def test_unfenced_sweep_shrinks_and_replays():
    sweep = ChaosRunner(SplitBrainScenario(policy="unfenced")).sweep([0, 1])
    assert sweep.failures
    for failure in sweep.failures:
        assert failure.replay_matches


# ----------------------------------------------------------------------
# The E14 claim (CI chaos-smoke runs this under -m slow)


@pytest.mark.slow
def test_fenced_exactly_zero_unfenced_positive_across_seeds():
    for seed in (0, 1, 2):
        _s, fenced = run_split("fenced", seed)
        _s, unfenced = run_split("unfenced", seed)
        assert fenced.counters.get("chaos.splitbrain.lost_updates", 0.0) == 0, seed
        assert fenced.violations == (), seed
        assert unfenced.counters["chaos.splitbrain.lost_updates"] > 0, seed
