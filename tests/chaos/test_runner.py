"""ChaosRunner end-to-end: sweeps, shrinking, bit-for-bit replay.

The acceptance story: a seeded sweep over the bank-clearing scenario
with a deliberately broken policy finds an invariant violation, shrinks
it to a minimal ChaosPlan, and replaying that plan with the same seed
reproduces the identical violation.
"""

import pytest

from repro.chaos import (
    BankClearingScenario,
    CartDynamoScenario,
    ChaosPlan,
    ChaosRunner,
)
from repro.chaos.plan import CrashEpisode
from repro.chaos.runner import _SCENARIOS, _build_scenario
from repro.errors import SimulationError


def test_correct_policy_survives_sweep():
    scenario = BankClearingScenario(policy="correct")
    result = ChaosRunner(scenario).sweep(range(3))
    assert result.runs == 3
    assert not result.failures
    assert result.violation_rate == 0.0


def test_broken_policy_found_shrunk_and_replayed():
    """The headline path: find -> shrink -> replay identically."""
    scenario = BankClearingScenario(policy="amnesiac-restart")
    runner = ChaosRunner(scenario, spec=scenario.spec(min_crashes=1))
    result = runner.sweep(range(3))

    # The sweep finds the planted bug.
    assert result.failures, "amnesiac-restart policy was not caught"
    for case in result.failures:
        assert case.violation.invariant == "conservation-of-money"

        # Shrinking produced a minimal plan: the bug needs a crash, so
        # the plan cannot be empty, and greedy dropping leaves one episode.
        assert 1 <= len(case.minimal_plan) <= len(case.plan)
        assert case.minimal_plan.of("crash"), "the violation requires a crash"

        # The minimal plan still shows the *same* bug...
        assert case.minimal_violation is not None
        assert case.minimal_violation.signature == case.violation.signature

        # ...and replays bit-for-bit from its seed: identical violation
        # (time, detail, phase, trace context) and identical counters.
        assert case.replay_matches

    # Violation rates flow through the runner's metrics registry.
    counters = runner.metrics.counters()
    assert counters["chaos.runs"] == 3
    assert counters["chaos.failing_runs"] == len(result.failures)
    assert counters["chaos.shrink.evals"] >= 1


def test_minimal_plan_replay_is_exact():
    """Replaying a shrunk plan twice gives equal reports, field for field."""
    scenario = BankClearingScenario(policy="amnesiac-restart")
    runner = ChaosRunner(scenario, spec=scenario.spec(min_crashes=1))
    case = runner.sweep([0]).failures[0]

    first = scenario.run(case.seed, case.minimal_plan)
    second = scenario.run(case.seed, case.minimal_plan)
    assert first.violations == second.violations
    assert first.counters == second.counters
    assert first.violations[0] == case.minimal_violation


def test_chaos_free_bug_shrinks_to_empty_plan():
    """branch-uniquifier double-debits without any chaos at all, so the
    shrinker should strip the schedule down to nothing."""
    scenario = BankClearingScenario(policy="branch-uniquifier")
    result = ChaosRunner(scenario).sweep([0])
    assert result.failures
    case = result.failures[0]
    assert case.violation.invariant == "no-duplicate-debit"
    assert len(case.minimal_plan) == 0
    assert case.replay_matches


class _CountingBank(BankClearingScenario):
    """Counts every run, so a test can price a shrink."""

    runs = 0

    def run(self, seed, plan):
        self.runs += 1
        return super().run(seed, plan)


@pytest.mark.parametrize("policy", ["amnesiac-restart", "branch-uniquifier"])
def test_a_shrink_costs_its_evals_plus_one_replay(policy):
    """Each plan tried runs once; the final plan is not run again, only
    replayed once for the bit-for-bit comparison."""
    scenario = _CountingBank(policy=policy)
    runner = ChaosRunner(scenario, spec=scenario.spec(min_crashes=1))
    report = scenario.run(0, runner.spec.sample(0))
    assert report.failed
    scenario.runs = 0
    case = runner.shrink_case(report)
    assert case.shrink_evals >= 1
    assert scenario.runs == case.shrink_evals + 1
    assert case.replay_matches
    assert case.minimal_violation.signature == report.violations[0].signature


class _FixedSpec:
    """A spec that samples the same plan at every seed."""

    def __init__(self, plan):
        self.plan = plan

    def sample(self, _seed):
        return self.plan


def test_fixed_plan_runner_skips_sampling():
    plan = ChaosPlan((CrashEpisode("g0", 5.0, 8.0),))
    runner = ChaosRunner(BankClearingScenario(policy="correct"), spec=_FixedSpec(plan))
    result = runner.sweep([0, 99])
    assert [report.plan for report in result.reports] == [plan, plan]
    assert not result.failures


def test_lww_cart_loses_adds_and_op_cart_does_not():
    """§6.1 under the same chaos plan: the op-centric cart keeps every
    acknowledged add; last-writer-wins drops some."""
    seed = 6  # a seed whose sampled plan splits the two shoppers
    lww = CartDynamoScenario(policy="lww")
    report = lww.run(seed, lww.spec().sample(seed))
    assert report.failed
    assert report.violations[0].invariant == "no-lost-cart-adds"

    correct = CartDynamoScenario(policy="correct")
    assert not correct.run(seed, correct.spec().sample(seed)).failed


def test_lww_cart_failure_shrinks_and_replays():
    result = ChaosRunner(CartDynamoScenario(policy="lww")).sweep([6])
    assert result.failures
    case = result.failures[0]
    assert len(case.minimal_plan) <= len(case.plan)
    assert case.replay_matches


def test_smoke_cli_entrypoint():
    from repro.chaos.runner import main

    assert main(["--scenario", "bank", "--seeds", "2"]) == 0
    assert main(["--scenario", "bank", "--policy", "branch-uniquifier",
                 "--seeds", "1"]) == 1


def test_cli_rejects_a_policy_for_a_scenario_that_takes_none():
    from repro.chaos.runner import main

    with pytest.raises(SimulationError, match="'mixed-txn' takes no policy"):
        main(["--scenario", "mixed-txn", "--policy", "leader", "--seeds", "1"])


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_every_scenario_says_which_policies_it_has(name):
    """One declaration per scenario, one check in the base class: every
    listed policy is accepted by ``--policy``, anything else is a
    SimulationError, and the default is one of the listed."""
    scenario = _build_scenario(name, policy=None)
    if name == "mixed-txn":
        assert scenario.policies == () and not hasattr(scenario, "policy")
    else:
        assert scenario.policy in scenario.policies
    for policy in scenario.policies:
        assert _build_scenario(name, policy=policy).policy == policy
    with pytest.raises(SimulationError, match="polic"):
        _build_scenario(name, policy="no-such-policy")


def test_cli_policy_is_the_constructor_policy():
    from_cli = _build_scenario("bank", policy="amnesiac-restart")
    direct = BankClearingScenario(policy="amnesiac-restart")
    assert vars(from_cli) == vars(direct)
    with pytest.raises(SimulationError, match="unknown bank-clearing policy 'bogus'"):
        BankClearingScenario(policy="bogus")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_rejects_a_sweep_of_no_seeds(count, capsys):
    """`--seeds 0` used to print violation_rate=0.00 and exit 0."""
    from repro.chaos.runner import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "bank", "--seeds", count])
    assert exit_info.value.code == 2
    assert "at least 1 seed" in capsys.readouterr().err
