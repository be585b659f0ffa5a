"""The geo game day: seed determinism, serial==parallel sweeps, shrink
convergence on the compound plan, and the fenced-vs-unfenced claim at
full multi-DC scale."""

import pytest

from repro.chaos.game_day import GameDayScenario, GameDaySpec
from repro.chaos.plan import DiskFaultEpisode, LinkFaultEpisode, WanCutEpisode
from repro.chaos.runner import ChaosRunner, _run_seed
from repro.errors import SimulationError
from repro.parallel import parallel_map
from tests.chaos.worlds import keep_sims


def small(policy="fenced", detector="phi", **kw):
    """A 12-node day for the fast tests; full scale runs once below."""
    return GameDayScenario(
        policy=policy, detector=detector, nodes_per_site=4, **kw
    )


def render(sim):
    return "\n".join(repr(r) for r in sim.trace.records)


def test_spec_includes_compound_timeline():
    scenario = small()
    plan = scenario.spec().sample(0)
    kinds = {type(e) for e in plan.episodes}
    assert WanCutEpisode in kinds
    assert LinkFaultEpisode in kinds
    assert DiskFaultEpisode in kinds
    # The scripted WAN cut severs exactly the log-shipping pair's sites.
    cut = next(e for e in plan.episodes if isinstance(e, WanCutEpisode))
    assert {cut.site_a, cut.site_b} == {"dc-east", "dc-west"}


def test_same_seed_bit_identical_trace_and_metrics():
    plan = small().spec().sample(5)
    first = small()
    second = small()
    first_sims, second_sims = keep_sims(first), keep_sims(second)
    r1 = first.run(5, plan)
    r2 = second.run(5, plan)
    assert r1.counters == r2.counters
    assert r1.violations == r2.violations
    assert r1.end_time == r2.end_time
    assert render(first_sims[0]) == render(second_sims[0])


def test_serial_sweep_matches_multiprocessing_sweep():
    """The runs a sweep folds, without the shrinking of every failure."""
    units = [(ChaosRunner(small(policy="unfenced")), seed) for seed in range(3)]
    serial = list(parallel_map(_run_seed, units, 1))
    parallel = list(parallel_map(_run_seed, units, 3))
    assert serial == parallel


def test_fenced_phi_sweep_is_clean():
    result = ChaosRunner(small()).sweep(range(3))
    assert not result.failures
    for report in result.reports:
        assert report.violations == ()


def test_unfenced_loses_post_takeover_writes():
    scenario = small(policy="unfenced")
    report = scenario.run(0, scenario.spec().sample(0))
    assert [v.invariant for v in report.violations] == ["no-lost-update"]
    assert scenario.lost_updates > 0
    # The fenced twin on the same plan survives, bouncing the stale tail.
    fenced = small(policy="fenced")
    clean = fenced.run(0, fenced.spec().sample(0))
    assert clean.violations == ()
    assert clean.counters.get("logship.stale_epoch_rejected", 0) > 0


def test_shrinking_converges_on_compound_plan():
    scenario = small(policy="unfenced")
    result = ChaosRunner(scenario).sweep([0])
    assert len(result.failures) == 1
    case = result.failures[0]
    assert case.replay_matches
    assert len(case.minimal_plan) <= len(case.plan)
    # The WAN cut is the story: shrinking may drop satellites and narrow
    # windows, but the cut that manufactures the split brain survives.
    assert any(
        isinstance(e, WanCutEpisode) for e in case.minimal_plan.episodes
    )


def test_detection_latency_orders_fixed_after_phi():
    phi = small(detector="phi")
    phi.run(0, phi.spec().sample(0))
    fixed = small(detector="fixed")
    fixed.run(0, fixed.spec().sample(0))
    assert phi.detection_latency is not None
    assert fixed.detection_latency is not None
    assert phi.detection_latency < fixed.detection_latency


@pytest.mark.slow
def test_full_scale_game_day():
    """The acceptance run: 100+ processes across three sites, three fault
    engines at once, zero violations and zero lost acked writes under
    fenced + phi-accrual."""
    scenario = GameDayScenario(policy="fenced", detector="phi")
    plan = scenario.spec().sample(0)
    overlapping = [
        e for e in plan.episodes
        if e.__class__ in (WanCutEpisode, LinkFaultEpisode)
        or isinstance(e, DiskFaultEpisode)
    ]
    assert len({type(e) for e in overlapping}) >= 3
    report = scenario.run(0, plan)
    assert scenario.endpoint_count >= 100
    assert len(scenario.SITES) >= 2
    assert report.violations == ()
    assert scenario.lost_acked_writes == 0
    assert scenario.lost_updates == 0
    assert scenario.converged_at is not None
    assert report.counters.get("chaos.gameday.acked_puts", 0) > 0
    assert report.counters.get("net.wan_msgs", 0) > 0


def test_bad_params_rejected():
    with pytest.raises(SimulationError):
        GameDayScenario(policy="hope")
    with pytest.raises(SimulationError):
        GameDayScenario(detector="oracle")
    with pytest.raises(SimulationError):
        GameDayScenario(nodes_per_site=1)


def test_spec_is_picklable_and_seed_pure():
    import pickle

    spec = small().spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert isinstance(clone, GameDaySpec)
    assert clone.sample(7).to_dict() == spec.sample(7).to_dict()
