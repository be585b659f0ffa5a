"""Standalone group commit: batching reduces work; under load it reduces
latency too (the §3.2 bus-vs-car claim)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, Timeout
from repro.storage import Disk
from repro.tandem import GroupCommitter


def run_offered_load(timer, arrivals=200, inter_arrival=0.001, seed=5):
    sim = Simulator(seed=seed)
    disk = Disk(sim)
    committer = GroupCommitter(sim, disk, timer=timer)

    def arrival_process():
        rng = sim.rng.stream("arrivals")
        for _ in range(arrivals):
            yield Timeout(rng.expovariate(1.0 / inter_arrival))
            sim.spawn(committer.commit())

    sim.spawn(arrival_process())
    sim.run()
    return sim


def test_negative_timer_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        GroupCommitter(sim, Disk(sim), timer=-1.0)


def test_single_commit_unbatched():
    sim = Simulator()
    committer = GroupCommitter(sim, Disk(sim), timer=None)

    def job():
        latency = yield from committer.commit()
        return latency

    assert sim.run_process(job()) == pytest.approx(0.0051)


def test_single_commit_batched_pays_the_timer():
    sim = Simulator()
    committer = GroupCommitter(sim, Disk(sim), timer=0.002)

    def job():
        latency = yield from committer.commit()
        return latency

    assert sim.run_process(job()) == pytest.approx(0.002 + 0.005 + 0.0001)


def test_bus_batches_concurrent_commits():
    sim = Simulator()
    disk = Disk(sim)
    committer = GroupCommitter(sim, disk, timer=0.002)
    for _ in range(10):
        sim.spawn(committer.commit())
    sim.run()
    assert sim.metrics.counter("groupcommit.busses").value == 1
    assert sim.metrics.counter("groupcommit.riders").value == 10


def test_under_load_batching_beats_car_per_driver():
    """At arrivals faster than the disk can serve individually, the bus
    reduces mean latency — the paper's counterintuitive claim."""
    car = run_offered_load(timer=None)
    bus = run_offered_load(timer=0.002)
    car_mean = car.metrics.histogram("groupcommit.latency").mean
    bus_mean = bus.metrics.histogram("groupcommit.latency").mean
    assert bus_mean < car_mean / 2


def test_when_idle_car_beats_bus():
    """At trivial load the bus only adds its timer."""
    car = run_offered_load(timer=None, arrivals=20, inter_arrival=0.1)
    bus = run_offered_load(timer=0.002, arrivals=20, inter_arrival=0.1)
    car_mean = car.metrics.histogram("groupcommit.latency").mean
    bus_mean = bus.metrics.histogram("groupcommit.latency").mean
    assert car_mean < bus_mean
