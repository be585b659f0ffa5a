"""Disk timing, queueing, failure."""

import pytest

from repro.errors import CrashedError
from repro.sim import Simulator
from repro.storage import Disk


def test_write_then_read_roundtrip():
    sim = Simulator()
    disk = Disk(sim)

    def run():
        yield from disk.write("k", "v")
        value = yield from disk.read("k")
        return value

    assert sim.run_process(run()) == "v"


def test_write_takes_service_time():
    sim = Simulator()
    disk = Disk(sim)

    def run():
        yield from disk.write("k", "v")
        return sim.now

    assert sim.run_process(run()) == pytest.approx(Disk.service_time + Disk.per_item_time)


def test_requests_queue_on_the_arm():
    sim = Simulator()
    disk = Disk(sim)
    finish_times = []

    def writer(i):
        yield from disk.write(i, i)
        finish_times.append(sim.now)

    for i in range(3):
        sim.spawn(writer(i))
    sim.run()
    one = Disk.service_time + Disk.per_item_time
    assert finish_times == pytest.approx([one, 2 * one, 3 * one])


def test_batch_write_cheaper_than_singles():
    """One batch of N beats N individual writes — the group-commit economics."""
    sim_single = Simulator()
    disk_single = Disk(sim_single)

    def singles():
        for i in range(10):
            yield from disk_single.write(i, i)
        return sim_single.now

    single_time = sim_single.run_process(singles())

    sim_batch = Simulator()
    disk_batch = Disk(sim_batch)

    def batched():
        yield from disk_batch.write_batch({i: i for i in range(10)})
        return sim_batch.now

    batch_time = sim_batch.run_process(batched())
    assert batch_time < single_time / 5


def test_read_missing_returns_none():
    sim = Simulator()
    disk = Disk(sim)

    def run():
        value = yield from disk.read("missing")
        return value

    assert sim.run_process(run()) is None


def test_failed_disk_raises():
    sim = Simulator()
    disk = Disk(sim)
    disk.fail()

    def run():
        try:
            yield from disk.write("k", "v")
        except CrashedError:
            return "failed"

    assert sim.run_process(run()) == "failed"


def test_repair_restores_service():
    sim = Simulator()
    disk = Disk(sim)
    disk.fail()
    disk.repair()

    def run():
        yield from disk.write("k", "v")
        return disk.peek("k")

    assert sim.run_process(run()) == "v"


def test_contents_and_len():
    sim = Simulator()
    disk = Disk(sim)

    def run():
        yield from disk.write_batch({"a": 1, "b": 2})

    sim.run_process(run())
    assert disk.contents() == {"a": 1, "b": 2}
    assert len(disk) == 2
    assert "a" in disk
