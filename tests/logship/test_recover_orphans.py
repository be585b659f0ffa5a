"""Resurrection accounting in depth: multi-key clobber counts, the
failover-before-any-batch-shipped edge, and recovery after a fenced
(live-primary) takeover."""

from repro.logship import LogShippingSystem
from repro.net.latency import FixedLatency
from repro.sim import Timeout


def make_system(**kwargs):
    kwargs.setdefault("ship_interval", 100.0)   # nothing ships on its own
    kwargs.setdefault("wan_latency", FixedLatency(0.01))
    return LogShippingSystem(**kwargs)


def test_failover_before_any_batch_shipped_orphans_everything():
    system = make_system()

    def job():
        for i in range(4):
            yield from system.submit({f"k{i}": i})
        result = system.fail_over()
        return result

    result = system.sim.run_process(job())
    assert result["lost_txns"] == ["txn-1", "txn-2", "txn-3", "txn-4"]
    assert system.primary.state == {}           # west never saw a byte
    recovery = system.recover_orphans(policy="discard")
    assert recovery["orphans"] == ["txn-1", "txn-2", "txn-3", "txn-4"]
    assert system.sim.metrics.counter("logship.discarded_orphans").value == 4


def test_reapply_resurrects_the_whole_tail():
    system = make_system()

    def job():
        for i in range(3):
            yield from system.submit({f"k{i}": i})
        system.fail_over()
        return system.recover_orphans(policy="reapply")

    result = system.sim.run_process(job())
    assert result["orphans"] == ["txn-1", "txn-2", "txn-3"]
    assert result["clobbered_keys"] == []       # west wrote nothing meanwhile
    assert system.primary.state == {"k0": 0, "k1": 1, "k2": 2}
    assert system.sim.metrics.counter("logship.resurrected").value == 3


def test_reapply_counts_every_clobbered_key():
    """One orphan touching three keys; the new primary rewrote two of
    them after the takeover — both count, the untouched one does not."""
    system = make_system()

    def job():
        yield from system.submit({"a": "old", "b": "old", "c": "old"})
        system.fail_over()
        yield from system.submit({"a": "new"})
        yield from system.submit({"b": "new"})
        return system.recover_orphans(policy="reapply")

    result = system.sim.run_process(job())
    assert sorted(result["clobbered_keys"]) == ["a", "b"]
    assert system.sim.metrics.counter("logship.clobbered_keys").value == 2
    # The damage itself: old values on top of newer ones.
    assert system.primary.state["a"] == "old"
    assert system.primary.state["b"] == "old"
    assert system.primary.state["c"] == "old"


def test_writes_before_takeover_do_not_count_as_clobbered():
    """The cutoff is the failover time: keys the backup already had from
    normal shipping are overwritten silently (same value anyway)."""
    system = make_system(ship_interval=0.05)

    def job():
        yield from system.submit({"a": 1})
        yield Timeout(1.0)                      # ships to west
        yield from system.submit({"b": "orphan"})
        system.fail_over()
        return system.recover_orphans(policy="reapply")

    result = system.sim.run_process(job())
    assert result["orphans"] == ["txn-2"]
    assert result["clobbered_keys"] == []
    assert system.primary.state == {"a": 1, "b": "orphan"}


def test_reapply_after_fenced_takeover_of_live_primary():
    """take_over never crashed east, so recovery is reintegration: the
    in-doubt tail replays, and east's fence stays in force."""
    system = make_system()

    def job():
        yield from system.submit({"x": "old"})
        system.take_over(fenced=True)
        yield from system.submit({"x": "new"})
        result = system.recover_orphans(policy="reapply")
        yield Timeout(1.0)                      # let the fence cast land
        return result

    result = system.sim.run_process(job())
    assert result["orphans"] == ["txn-1"]
    assert result["clobbered_keys"] == ["x"]
    assert system.primary.state["x"] == "old"
    assert not system.sites["east"].crashed
    # The fence reached the live deposed primary over the healthy link.
    assert system.sites["east"].deposed


def test_resurrection_ships_forward_after_recovery():
    """After recovery the new primary's shipper resumes toward the
    restarted site: post-takeover commits become durable everywhere."""
    system = make_system(ship_interval=0.05)

    def job():
        yield from system.submit({"a": 1})
        system.fail_over()
        yield from system.submit({"b": 2})
        system.recover_orphans(policy="discard")
        yield Timeout(2.0)

    system.sim.run_process(job())
    assert "txn-2" in system.durable_everywhere()
