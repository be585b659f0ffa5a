"""Rejoin chaos scenario: rolling cold restarts, no acked write lost."""

import pytest

from repro.chaos.plan import ChaosPlan, CrashEpisode
from repro.chaos.rejoin import RejoinScenario
from repro.errors import SimulationError


def test_snapshot_policy_sweeps_clean():
    scenario = RejoinScenario()
    for seed in range(3):
        report = scenario.run(seed, scenario.spec().sample(seed))
        assert not report.violations, report.violations
        assert report.counters["chaos.rejoin.acked_puts"] > 0


def test_no_snapshot_policy_also_clean_but_seeds_nothing():
    """Correctness does not depend on snapshots (anti-entropy repairs
    everything) — the snapshot changes the rejoin *cost*, not the answer."""
    scenario = RejoinScenario(policy="no-snapshot")
    report = scenario.run(1, scenario.spec().sample(1))
    assert not report.violations
    assert report.counters.get("chaos.rejoin.seeded_versions", 0) == 0


def test_snapshot_seeds_the_bulk_of_lost_state():
    scenario = RejoinScenario()
    report = scenario.run(3, scenario.spec().sample(3))
    lost = report.counters["chaos.rejoin.versions_lost_at_crash"]
    seeded = report.counters["chaos.rejoin.seeded_versions"]
    assert lost > 0
    assert seeded > 0.5 * lost  # most of the store came back from disk


def test_time_to_converged_is_measured():
    scenario = RejoinScenario()
    report = scenario.run(2, scenario.spec().sample(2))
    assert not report.violations
    assert report.counters["chaos.invariant.checks"] >= 2


def test_crash_fraction_victims():
    assert RejoinScenario().victim_count() == 2
    with pytest.raises(SimulationError):
        RejoinScenario(policy="bogus")


def test_spec_samples_no_crashes():
    """Crash scheduling belongs to the scenario's rolling cycle; sampled
    plans add only message chaos."""
    scenario = RejoinScenario()
    for seed in range(5):
        plan = scenario.spec().sample(seed)
        assert not plan.of("crash")
        assert not plan.of("partition")


def test_hand_written_crash_plan_uses_cold_path():
    """A plan crash episode goes through cold_crash/cold_restart (store
    lost, snapshot seed) and still loses nothing."""
    scenario = RejoinScenario()
    plan = ChaosPlan((CrashEpisode("node1", at=6.0, back_at=9.0),))
    report = scenario.run(4, plan)
    assert not report.violations
    assert report.counters["dynamo.node1.cold_crashes"] == 1


def test_replays_bit_for_bit():
    scenario = RejoinScenario()
    plan = scenario.spec().sample(5)
    first = scenario.run(5, plan)
    second = scenario.run(5, plan)
    assert first.counters == second.counters
    assert first.end_time == second.end_time
