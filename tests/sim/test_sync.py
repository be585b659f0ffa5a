"""Mailbox / Lock semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Lock, Mailbox, Simulator, Timeout
from repro.storage import Disk


def test_mailbox_put_then_get():
    sim = Simulator()
    box = Mailbox(sim)
    box.put("a")

    def getter():
        item = yield box.get()
        return item

    assert sim.run_process(getter()) == "a"


def test_mailbox_get_blocks_until_put():
    sim = Simulator()
    box = Mailbox(sim)

    def producer():
        yield Timeout(3.0)
        box.put("late")

    def consumer():
        item = yield box.get()
        return (item, sim.now)

    sim.spawn(producer())
    assert sim.run_process(consumer()) == ("late", 3.0)


def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    for item in (1, 2, 3):
        box.put(item)

    def consumer():
        got = []
        for _ in range(3):
            got.append((yield box.get()))
        return got

    assert sim.run_process(consumer()) == [1, 2, 3]


def test_mailbox_waiters_served_in_order():
    sim = Simulator()
    box = Mailbox(sim)
    results = []

    def consumer(tag):
        item = yield box.get()
        results.append((tag, item))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.schedule(1.0, box.put, "x")
    sim.schedule(2.0, box.put, "y")
    sim.run()
    assert results == [("first", "x"), ("second", "y")]


def test_mailbox_drain():
    sim = Simulator()
    box = Mailbox(sim)
    box.put(1)
    box.put(2)
    assert box.drain() == [1, 2]
    assert len(box) == 0


def test_resource_serializes_beyond_capacity():
    sim = Simulator()
    resource = Lock(sim)
    spans = []

    def worker(tag):
        yield resource.acquire()
        start = sim.now
        yield Timeout(10.0)
        resource.release()
        spans.append((tag, start, sim.now))

    sim.spawn(worker("a"))
    sim.spawn(worker("b"))
    sim.run()
    assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]


def test_resource_release_idle_rejected():
    sim = Simulator()
    resource = Lock(sim)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_queue_depth():
    sim = Simulator()
    resource = Lock(sim)

    def holder():
        yield resource.acquire()
        yield Timeout(5.0)
        resource.release()

    def waiter():
        yield resource.acquire()
        resource.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run(until=1.0)
    assert resource.queue_depth == 1
    sim.run()
    assert resource.queue_depth == 0


def test_lock_locked_property():
    sim = Simulator()
    lock = Lock(sim)

    def holder():
        yield lock.acquire()
        assert lock.locked
        yield Timeout(1.0)
        lock.release()

    sim.spawn(holder())
    sim.run()
    assert not lock.locked


def test_release_skips_an_interrupted_waiter():
    """Three writers on one disk: the second queues for the arm and is
    interrupted while it waits. The first's release must not hand the
    arm to the dead waiter, or the arm stays held by nobody and the
    third write never completes."""
    sim = Simulator()
    disk = Disk(sim)
    done = []

    def writer(tag):
        yield from disk.write(tag, tag)
        done.append((tag, sim.now))

    sim.spawn(writer("first"))
    second = sim.spawn(writer("second"))
    sim.schedule(0.001, second.interrupt, "crash")
    sim.schedule(0.1, sim.spawn, writer("third"))
    sim.run()
    assert [tag for tag, _ in done] == ["first", "third"]
    assert done[1][1] == pytest.approx(0.1 + Disk.service_time + Disk.per_item_time)
    assert not disk._arm.locked and disk._arm.queue_depth == 0


def test_put_skips_an_interrupted_getter():
    """An item put after a getter was interrupted goes to the next live
    getter, or stays queued: it is never handed to the dead one."""
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer():
        got.append((yield box.get()))

    dead = sim.spawn(consumer())
    sim.schedule(1.0, dead.interrupt, "crash")
    sim.schedule(2.0, box.put, "x")
    sim.schedule(3.0, sim.spawn, consumer())
    sim.run()
    assert got == ["x"]
    assert len(box) == 0
