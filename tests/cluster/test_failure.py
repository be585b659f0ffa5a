"""Failure injection plans and random schedules."""

import pytest

from repro.cluster import CrashPlan, FailureInjector, Node
from repro.errors import SimulationError
from repro.sim import Simulator


def make_cluster(names, seed=0):
    sim = Simulator(seed=seed)
    nodes = {name: Node(sim, name) for name in names}
    return sim, nodes


def test_crash_plan_executes():
    sim, nodes = make_cluster(["a"])
    FailureInjector(sim, nodes).install([CrashPlan("a", at=5.0, back_at=8.0)])
    sim.run(until=6.0)
    assert not nodes["a"].up
    sim.run(until=9.0)
    assert nodes["a"].up


def test_crash_plan_without_restart():
    sim, nodes = make_cluster(["a"])
    FailureInjector(sim, nodes).install([CrashPlan("a", at=5.0)])
    sim.run()
    assert not nodes["a"].up


def test_bad_plan_rejected():
    with pytest.raises(SimulationError):
        CrashPlan("a", at=5.0, back_at=5.0)


def test_unknown_node_rejected():
    sim, nodes = make_cluster(["a"])
    injector = FailureInjector(sim, nodes)
    with pytest.raises(SimulationError):
        injector.install([CrashPlan("ghost", at=1.0)])


def test_random_schedule_crashes_and_restarts():
    sim, nodes = make_cluster(["a"], seed=11)
    FailureInjector(sim, nodes).install_random("a", mttf=10.0, mttr=2.0)
    sim.run(until=200.0)
    assert nodes["a"].crash_count >= 5


def test_random_schedule_deterministic_under_seed():
    counts = []
    for _ in range(2):
        sim, nodes = make_cluster(["a"], seed=11)
        FailureInjector(sim, nodes).install_random("a", mttf=10.0, mttr=2.0)
        sim.run(until=100.0)
        counts.append(nodes["a"].crash_count)
    assert counts[0] == counts[1]


def test_random_schedule_validates_params():
    sim, nodes = make_cluster(["a"])
    injector = FailureInjector(sim, nodes)
    with pytest.raises(SimulationError):
        injector.install_random("a", mttf=0.0, mttr=1.0)
