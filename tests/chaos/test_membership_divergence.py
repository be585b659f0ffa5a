"""Membership-divergence scenario: gossiped liveness views pushed apart
by partitions, lossy links, and a crash — and the three claims that must
survive it: views reconverge after the heal, a refuted suspicion never
sticks, and no acked write is lost while the views disagreed."""

import pytest

from repro.chaos.membership_divergence import MembershipDivergenceScenario
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import ChaosRunner, _build_scenario
from repro.errors import SimulationError

# The smoke-gate shape: short horizon, quick gossip, tight suspicion.
SHORT = dict(num_nodes=5, horizon=10.0, gossip_period=0.25,
             suspicion_timeout=1.0)


def run_divergence(seed, plan=None, **kwargs):
    params = dict(SHORT)
    params.update(kwargs)
    scenario = MembershipDivergenceScenario(**params)
    report = scenario.run(
        seed, plan if plan is not None else scenario.spec().sample(seed)
    )
    return scenario, report


# ----------------------------------------------------------------------
# The invariants hold under sampled chaos


def test_sampled_plan_is_clean_and_views_reconverge():
    _scenario, report = run_divergence(seed=0)
    assert report.violations == ()
    # The scenario actually ran traffic and rumors, not a vacuous pass.
    assert report.counters["chaos.mship.acked_puts"] > 0
    assert report.counters["membership.rounds"] > 0


def test_sweep_stays_clean_across_seeds():
    scenario = MembershipDivergenceScenario(**SHORT)
    result = ChaosRunner(scenario).sweep(range(5))
    assert not result.failures, (
        [c.violation for c in result.failures]
    )


def test_chaos_actually_diverges_the_views_somewhere():
    """Across a handful of seeds, at least one plan must push the views
    apart (divergent sampler ticks) and mint suspicions — otherwise the
    invariants above are passing on an untested claim."""
    divergent_ticks = 0.0
    suspicions = 0.0
    for seed in range(5):
        _scenario, report = run_divergence(seed)
        divergent_ticks += report.counters.get("chaos.mship.divergent_ticks", 0)
        suspicions += report.counters.get("membership.changes", 0)
    assert divergent_ticks > 0
    assert suspicions > 0


def test_refutations_clear_in_flight_accusations():
    """Some seed's plan partitions long enough to suspect a live node;
    the quiesce check then proves the refutation won everywhere."""
    refutations = 0.0
    for seed in range(5):
        _scenario, report = run_divergence(seed)
        assert report.violations == ()
        refutations += report.counters.get("membership.refutations", 0)
    assert refutations > 0


# ----------------------------------------------------------------------
# Determinism: same seed, same story, bit for bit


def test_seed_identical_runs_are_bit_identical():
    _s1, one = run_divergence(seed=3)
    _s2, two = run_divergence(seed=3)
    assert one.counters == two.counters
    assert one.end_time == two.end_time
    assert one.violations == two.violations


def test_different_seeds_tell_different_stories():
    _s1, one = run_divergence(seed=0)
    _s2, two = run_divergence(seed=1)
    assert one.counters != two.counters


def test_calm_run_converges_trivially():
    _scenario, report = run_divergence(seed=0, plan=ChaosPlan())
    assert report.violations == ()
    assert report.counters.get("chaos.mship.divergent_ticks", 0) == 0


# ----------------------------------------------------------------------
# Registration and validation


def test_registered_with_the_runner():
    scenario = _build_scenario("membership-divergence", policy=None)
    assert isinstance(scenario, MembershipDivergenceScenario)


def test_unknown_policy_is_rejected():
    """There is one policy and so no constructor argument; the CLI's
    ``--policy`` still has to name it."""
    assert _build_scenario("membership-divergence", policy="gossip").policy == "gossip"
    with pytest.raises(SimulationError, match="unknown membership_divergence policy"):
        _build_scenario("membership-divergence", policy="oracle")


def test_too_few_nodes_rejected():
    with pytest.raises(SimulationError):
        MembershipDivergenceScenario(num_nodes=3)


# ----------------------------------------------------------------------
# The E19 claim (CI chaos-smoke runs this under -m slow)


@pytest.mark.slow
def test_e19_claim_dissemination_and_flapping():
    """The full sweep: dissemination latency ∝ log(n)·period (shrinking
    with fanout), fast flapping under-convicts, slow flapping convicts
    and is always refuted."""
    from benchmarks.bench_e19_gossip_membership import check_claims, run_sweep

    dis_rows, flap = run_sweep()
    check_claims(dis_rows, flap)


@pytest.mark.slow
def test_full_scale_sweep_is_clean():
    scenario = MembershipDivergenceScenario()
    result = ChaosRunner(scenario).sweep(range(8))
    assert not result.failures, (
        [c.violation for c in result.failures]
    )
