"""Epoch fencing at the replica and system level, and the SYNC-mode
degradation counter."""

import pytest

from repro.errors import StaleEpochError
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import FixedLatency
from repro.sim import Timeout


def make_system(mode=ShipMode.ASYNC, **kwargs):
    kwargs.setdefault("ship_interval", 0.05)
    kwargs.setdefault("wan_latency", FixedLatency(0.01))
    return LogShippingSystem(mode, **kwargs)


def test_fence_is_monotonic():
    system = make_system()
    east = system.sites["east"]
    east.fence(5)
    east.fence(3)                     # an older token cannot lower the bar
    assert east.fenced_below == 5
    assert east.deposed               # own epoch 0 < 5


def test_deposed_replica_rejects_commits():
    system = make_system()
    east = system.sites["east"]
    east.fence(2)

    def job():
        yield from east.commit_transaction("t1", {"k": 1})

    with pytest.raises(StaleEpochError) as excinfo:
        system.sim.run_process(job())
    assert excinfo.value.epoch == 0
    assert excinfo.value.current == 2
    assert "t1" not in east.committed_local


def test_fenced_ship_bounces_and_teaches_the_sender():
    """A deposed sender's batch is rejected wholesale, and the reply
    carries the regime it lost to — fencing the sender as a side effect."""
    system = make_system(ship_interval=100.0)
    sim = system.sim
    west = system.sites["west"]
    west.epoch = 3
    west.fence(3)                     # west belongs to regime 3
    sim.spawn(system.submit({"k": "old"}))
    sim.run(until=0.5)

    result = sim.run_process(system._ship_once("east"), until=5.0)
    assert result is None             # degraded, not shipped
    east = system.sites["east"]
    assert east.fenced_below == 3
    assert east.deposed
    assert "txn-1" not in west.applied_txns
    assert sim.metrics.counter("logship.stale_epoch_rejected").value >= 1
    assert sim.metrics.counter("logship.west.fenced_batches").value == 1


def test_fence_message_fences():
    system = make_system()
    sim = system.sim

    def job():
        reply = yield from system.client.call("east", "FENCE", {"epoch": 7})
        return reply

    reply = sim.run_process(job(), until=5.0)
    assert reply == {"epoch": 7}
    assert system.sites["east"].fenced_below == 7


def test_current_epoch_traffic_passes_the_fence():
    """Fencing rejects *older* regimes only: the owning regime's own
    batches (epoch == fenced_below) apply normally."""
    system = make_system(ship_interval=100.0)
    sim = system.sim
    system.adopt_epoch(4)
    system.sites["west"].fence(4)
    sim.spawn(system.submit({"k": 1}))
    sim.run(until=0.5)
    shipped = sim.run_process(system._ship_once("east"), until=5.0)
    assert shipped and shipped > 0
    assert "txn-1" in system.sites["west"].applied_txns


def test_sync_degrades_loudly_when_peer_unreachable():
    system = make_system(mode=ShipMode.SYNC)
    sim = system.sim

    def job():
        yield from system.submit({"k": 1})
        system.network.detach("west")
        yield Timeout(0.01)
        yield from system.submit({"k": 2})

    sim.run_process(job(), until=10.0)
    # Both commits acked — but the second one's SYNC promise is broken,
    # and that now shows up in the metrics instead of passing silently.
    assert sim.metrics.counter("logship.acked_commits").value == 2
    assert sim.metrics.counter("logship.sync_degraded").value == 1
    assert "txn-2" not in system.sites["west"].applied_txns
    events = sim.trace.find(kind="sync_degraded")
    assert events and events[0].payload["site"] == "east"


def test_sync_degrades_loudly_when_fenced():
    system = make_system(mode=ShipMode.SYNC)
    sim = system.sim
    system.sites["west"].epoch = 9
    system.sites["west"].fence(9)

    def job():
        yield from system.submit({"k": 1})

    sim.run_process(job(), until=10.0)
    assert sim.metrics.counter("logship.sync_degraded").value == 1
    assert sim.metrics.counter("logship.stale_epoch_rejected").value >= 1


def test_default_system_carries_no_epochs():
    """Without a failover stack installed, nothing is fenced and nothing
    is stamped — the pre-fencing behavior (and its goldens) hold."""
    system = make_system()
    sim = system.sim
    sim.spawn(system.submit({"k": 1}))
    sim.run(until=1.0)
    for site in system.sites.values():
        assert site.epoch == 0
        assert site.fenced_below == 0
        assert not site.deposed
    assert "k" in system.sites["west"].state
    assert sim.metrics.counter("logship.stale_epoch_rejected").value == 0
