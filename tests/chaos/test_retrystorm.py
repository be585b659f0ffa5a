"""Retry-storm scenario (E13): determinism, invariants, and the claim.

Fast tests pin the scenario's correctness properties: both disciplines
stay invariant-clean, runs are bit-identical under a shared seed, and a
sweep fans out over worker processes without changing a single byte of
any report. The ``slow``-marked test reproduces the experiment's claim
end to end (resilient in-window goodput >= 2x naive) and runs in CI's
chaos-smoke job.
"""

import pytest

from repro.chaos.plan import ChaosPlan
from repro.chaos.retrystorm import RetryStormScenario
from repro.chaos.runner import ChaosRunner


def run_storm(policy, seed, plan=None):
    scenario = RetryStormScenario(policy=policy)
    return scenario.run(seed, plan if plan is not None else ChaosPlan())


# ----------------------------------------------------------------------
# Invariants hold under both disciplines


def test_resilient_run_is_clean_and_productive():
    report = run_storm("resilient", seed=0)
    assert report.violations == ()
    counters = report.counters
    assert counters["chaos.retrystorm.ok"] > 0
    # The stack actually engaged: admission shed load, the degraded
    # hook answered from the stale guess, nobody re-minted identities.
    assert counters["resilience.admission.server.shed_busy"] > 0
    assert counters["chaos.retrystorm.ok_degraded"] > 0
    assert "chaos.retrystorm.reissues" not in counters


def test_naive_run_is_clean_but_stormy():
    report = run_storm("naive", seed=0)
    assert report.violations == ()          # a storm is not a correctness bug
    counters = report.counters
    assert counters["chaos.retrystorm.reissues"] > 0
    # Fresh uniquifiers defeat dedup: the server executes (much) more
    # work than the clients counted as successes.
    assert counters["chaos.retrystorm.executed"] > counters["chaos.retrystorm.ok"]


def test_invariants_hold_under_injected_faults():
    scenario = RetryStormScenario(policy="resilient")
    for seed in (3, 4):
        plan = scenario.spec().sample(seed)
        report = scenario.run(seed, plan)
        assert report.violations == (), (seed, report.violations)


# ----------------------------------------------------------------------
# Determinism


@pytest.mark.parametrize("policy", ["naive", "resilient"])
def test_same_seed_same_run(policy):
    first = run_storm(policy, seed=7)
    second = run_storm(policy, seed=7)
    assert first.counters == second.counters
    assert first.violations == second.violations
    assert first.end_time == second.end_time


def test_sweep_serial_vs_parallel_bit_identical():
    seeds = [0, 1, 2, 3]
    serial = ChaosRunner(RetryStormScenario(policy="resilient")).sweep(
        seeds, processes=1
    )
    fanned = ChaosRunner(RetryStormScenario(policy="resilient")).sweep(
        seeds, processes=2
    )
    assert serial.reports == fanned.reports
    assert serial.failures == fanned.failures


# ----------------------------------------------------------------------
# The E13 claim (CI chaos-smoke runs this under -m slow)


@pytest.mark.slow
def test_resilient_goodput_at_least_twice_naive():
    seeds = (0, 1, 2)
    naive = sum(
        run_storm("naive", seed).counters.get("chaos.retrystorm.ok_window", 0.0)
        for seed in seeds
    ) / len(seeds)
    resilient = sum(
        run_storm("resilient", seed).counters.get("chaos.retrystorm.ok_window", 0.0)
        for seed in seeds
    ) / len(seeds)
    assert resilient >= 2 * max(naive, 1.0)
