"""A backup that went away and came back is shipped to again, and never
past a gap: the shipper learns of the peer from its own SHIP traffic,
and the peer's reply, not the sender's hope, moves the cursor."""

import pytest

from repro.errors import CrashedError
from repro.logship import LogShippingSystem, ShipMode
from repro.logship.system import SHIP_POLICY
from repro.sim import Timeout

#: Longer than one SHIP's whole retry budget: the shipper has given up on
#: that SHIP before the peer is back.
PAST_SHIP_POLICY = SHIP_POLICY.max_attempts * SHIP_POLICY.timeout + 5.0


def txns(count):
    return {f"txn-{i}" for i in range(1, count + 1)}


@pytest.mark.parametrize("down_for", [1.0, PAST_SHIP_POLICY])
def test_warm_restarted_backup_receives_what_it_missed(down_for):
    """West is down when the shipper first tries txn-2 and back later,
    with nothing announcing it and no commit after txn-2: the shipper's
    own retries reach it."""
    system = LogShippingSystem(seed=1)
    west = system.sites["west"]

    def story():
        yield from system.submit({"a": 1})
        yield Timeout(1.0)
        west.crash()
        yield from system.submit({"b": 2})
        yield Timeout(down_for)
        west.restart()

    system.sim.spawn(story())
    system.sim.run(until=60.0)
    assert west.applied_txns == txns(2)


def test_tail_reaches_the_backup_once_a_long_partition_heals():
    """The partition outlasts a whole SHIP and nothing is committed after
    it: the shipper keeps trying, and the tail lands after the heal."""
    system = LogShippingSystem(seed=1)
    west = system.sites["west"]

    def story():
        yield from system.submit({"a": 1})
        yield Timeout(1.0)
        system.network.partition([{"east", "lsclient"}, {"west"}])
        yield from system.submit({"b": 2})
        yield Timeout(PAST_SHIP_POLICY)
        assert west.applied_txns == txns(1)
        system.network.heal()

    system.sim.spawn(story())
    system.sim.run(until=60.0)
    assert west.applied_txns == txns(2)
    assert system.sim.metrics.counter("logship.ship_failures").value >= 1


@pytest.mark.parametrize("mode", [ShipMode.ASYNC, ShipMode.SYNC])
def test_a_gap_in_the_senders_lsns_does_not_stall_shipping(mode):
    """A flush that fails on a dead disk keeps its records buffered, and a
    crash then drops them: east's log skips their LSNs. Batches after the
    gap still extend west's replay, so txn-3 ships and its commit acks."""
    system = LogShippingSystem(mode, seed=1)
    east, west = system.sites["east"], system.sites["west"]

    def story():
        yield from system.submit({"a": 1})
        yield Timeout(1.0)
        east.disk.fail()
        with pytest.raises(CrashedError):
            yield from system.submit({"b": 2})
        east.crash()
        east.restart()
        east.disk.repair()
        yield from system.submit({"c": 3})
        return system.sim.now

    acked_at = system.sim.run_process(story(), until=30.0)
    assert acked_at < 2.0
    assert west.applied_txns == {"txn-1", "txn-3"}
    assert east.shipped_lsn == east.wal.durable_lsn


def crash_and_rejoin_west_mid_ship(mode, second_wave):
    """Five commits ship; the next batch is on the wire when west crashes
    and cold-rejoins from LSN 0 before that SHIP's retry lands."""
    system = LogShippingSystem(mode, seed=1)
    sim = system.sim

    def story():
        for i in range(5):
            yield from system.submit({f"k{i}": i})
        yield Timeout(1.0)
        yield from second_wave(system)
        system.sites["west"].crash()
        yield Timeout(0.01)
        result = yield from system.rejoin("west")
        assert result["reship_from"] == 0

    sim.spawn(story())
    sim.run(until=30.0)
    return system


def test_ship_in_flight_across_a_rejoin_skips_nothing_async():
    def second_wave(system):
        for i in range(5, 10):
            yield from system.submit({f"k{i}": i})
        yield Timeout(0.051)          # the batch for txn-6..10 has left

    system = crash_and_rejoin_west_mid_ship(ShipMode.ASYNC, second_wave)
    assert system.sites["west"].applied_txns == txns(10)
    assert system.sites["west"].state == system.sites["east"].state


def test_ship_in_flight_across_a_rejoin_skips_nothing_sync():
    """A SYNC commit's own SHIP is retried past the rejoin: west refuses
    the gap it would leave, and the commit re-ships from west's cursor."""
    def second_wave(system):
        system.sim.spawn(system.submit({"k5": 5}))
        yield Timeout(0.02)           # txn-6's SHIP has left

    system = crash_and_rejoin_west_mid_ship(ShipMode.SYNC, second_wave)
    assert system.sites["west"].applied_txns == txns(6)
    assert system.sim.metrics.counter("logship.acked_commits").value == 6
    assert system.sim.metrics.counter("logship.sync_degraded").value == 0
