"""Ring-rebalance chaos scenario: joins and a decommission mid-traffic."""

import pytest

from repro.chaos.ring_rebalance import RingRebalanceScenario
from repro.chaos.runner import _build_scenario
from repro.errors import SimulationError


def test_sweeps_clean_across_seeds():
    scenario = RingRebalanceScenario()
    for seed in range(3):
        report = scenario.run(seed, scenario.spec().sample(seed))
        assert not report.violations, report.violations
        assert report.counters["chaos.rebalance.acked_puts"] > 0
        assert report.counters["dynamo.ring_joins"] == 2
        assert report.counters["dynamo.ring_decommissions"] == 1


def test_rebalance_moves_versions():
    scenario = RingRebalanceScenario()
    report = scenario.run(1, scenario.spec().sample(1))
    assert report.counters["chaos.rebalance.versions_rebalanced"] > 0


def test_replay_is_deterministic():
    scenario = RingRebalanceScenario()
    plan = scenario.spec().sample(2)
    first = scenario.run(2, plan)
    second = scenario.run(2, plan)
    assert first.counters == second.counters
    assert first.end_time == second.end_time
    assert first.violations == second.violations


def test_spec_samples_message_chaos_only():
    """Crashing nodes on top of a decommission would make no-acked-write
    -lost unsatisfiable by design; the reshape schedule is the
    scenario's own seeded timeline."""
    scenario = RingRebalanceScenario()
    for seed in range(5):
        plan = scenario.spec().sample(seed)
        assert not plan.of("crash")
        assert not plan.of("partition")


def test_bad_parameters_rejected():
    with pytest.raises(SimulationError):
        _build_scenario("ring-rebalance", policy="bogus")
