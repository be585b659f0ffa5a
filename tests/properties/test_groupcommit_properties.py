"""Property-based: group commit never strands a rider and conserves work."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Timeout
from repro.storage import Disk
from repro.tandem import GroupCommitter

arrival_plans = st.lists(
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(arrival_plans, st.sampled_from([None, 0.0, 0.002, 0.01]))
@settings(max_examples=60, deadline=None)
def test_every_commit_completes(gaps, timer):
    sim = Simulator(seed=1)
    committer = GroupCommitter(sim, Disk(sim), timer=timer)
    done = []

    def arrivals():
        for index, gap in enumerate(gaps):
            yield Timeout(gap)
            sim.spawn(_commit(index))

    def _commit(index):
        latency = yield from committer.commit()
        done.append((index, latency))

    sim.spawn(arrivals())
    sim.run()
    assert sorted(i for i, _l in done) == list(range(len(gaps)))
    assert all(latency >= 0 for _i, latency in done)


@given(arrival_plans)
@settings(max_examples=40, deadline=None)
def test_riders_conserved(gaps):
    """Total riders across all busses equals total commits."""
    sim = Simulator(seed=1)
    committer = GroupCommitter(sim, Disk(sim), timer=0.002)

    def arrivals():
        for gap in gaps:
            yield Timeout(gap)
            sim.spawn(committer.commit())

    sim.spawn(arrivals())
    sim.run()
    riders = sim.metrics.counter("groupcommit.riders").value
    assert riders == len(gaps)
    busses = sim.metrics.counter("groupcommit.busses").value
    assert 1 <= busses <= len(gaps)


@given(arrival_plans)
@settings(max_examples=40, deadline=None)
def test_batching_never_does_more_disk_writes_than_car(gaps):
    def run(timer):
        sim = Simulator(seed=1)
        disk = Disk(sim)
        committer = GroupCommitter(sim, disk, timer=timer)

        def arrivals():
            for gap in gaps:
                yield Timeout(gap)
                sim.spawn(committer.commit())

        sim.spawn(arrivals())
        sim.run()
        return sim.metrics.counter(f"disk.{disk.name}.writes").value

    assert run(0.002) <= run(None)
