"""Crash episodes, lowered onto the one crash adapter.

What ``repro.cluster.failure`` (``CrashPlan`` + ``FailureInjector``) used
to be tested for, now that a :class:`CrashEpisode` lowers itself: the
ids are kept so the behaviours visibly survived the module.
"""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.harness import Crashable
from repro.chaos.plan import ChaosPlan, CrashEpisode
from repro.errors import SimulationError
from repro.sim import Simulator


def make_cluster(names, seed=0):
    sim = Simulator(seed=seed)
    causes = []
    nodes = {name: Crashable(causes.append, lambda: None) for name in names}
    return sim, nodes, causes


def install(sim, nodes, *episodes):
    ChaosEngine(ChaosTargets(sim, nodes=nodes)).install(ChaosPlan(episodes))


def test_crash_plan_executes():
    sim, nodes, causes = make_cluster(["a"])
    install(sim, nodes, CrashEpisode("a", at=5.0, back_at=8.0))
    sim.run(until=6.0)
    assert not nodes["a"].up
    assert causes == ["injected"]
    sim.run(until=9.0)
    assert nodes["a"].up


def test_crash_plan_without_restart():
    sim, nodes, _causes = make_cluster(["a"])
    install(sim, nodes, CrashEpisode("a", at=5.0))
    sim.run()
    assert not nodes["a"].up


def test_bad_plan_rejected():
    with pytest.raises(SimulationError):
        CrashEpisode("a", at=5.0, back_at=5.0)


def test_unknown_node_rejected():
    sim, nodes, _causes = make_cluster(["a"])
    with pytest.raises(SimulationError, match="unknown node 'ghost'"):
        install(sim, nodes, CrashEpisode("a", at=1.0), CrashEpisode("ghost", at=1.0))
    assert sim.pending_count == 0  # checked before anything is scheduled
