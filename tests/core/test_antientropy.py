"""Anti-entropy: convergence, schedules, disconnection."""

from repro.core import Replica
from repro.core.antientropy import GossipSchedule, converged, sync_all, sync_replicas
from repro.sim import Simulator
from tests.core.conftest import add_op


def make_replicas(counter_registry, n, clock=None):
    return [Replica(f"r{i}", counter_registry, clock=clock) for i in range(n)]


def test_sync_replicas_bidirectional(counter_registry):
    a, b = make_replicas(counter_registry, 2)
    a.submit(add_op(1))
    b.submit(add_op(2))
    sync_replicas(a, b)
    assert a.state["total"] == b.state["total"] == 3


def test_sync_all_converges_ring(counter_registry):
    replicas = make_replicas(counter_registry, 5)
    for i, replica in enumerate(replicas):
        replica.submit(add_op(i + 1))
    assert not converged(replicas)
    sync_all(replicas, rounds=len(replicas))
    assert converged(replicas)
    assert all(r.state["total"] == 15 for r in replicas)


def test_converged_empty_and_single(counter_registry):
    assert converged([])
    assert converged(make_replicas(counter_registry, 1))


def test_gossip_schedule_converges(counter_registry):
    sim = Simulator(seed=1)
    replicas = make_replicas(counter_registry, 4, clock=lambda: sim.now)
    for i, replica in enumerate(replicas):
        replica.submit(add_op(10 * (i + 1)))
    schedule = GossipSchedule(sim, replicas, period=1.0, until=10.0)
    schedule.install()
    sim.run()
    assert converged(replicas)
    assert all(r.state["total"] == 100 for r in replicas)
    assert schedule.syncs_done > 0
