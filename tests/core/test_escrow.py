"""Escrow locking: worst-case bounds, interleaving, READ barrier."""

import pytest

from repro.core import EscrowAccount, ExclusiveAccount
from repro.errors import EscrowOverflow, SimulationError
from repro.sim import Simulator, Timeout


def test_initial_out_of_bounds_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        EscrowAccount(sim, initial=-1.0)


def test_reserve_commit_applies_delta():
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)

    def job():
        yield from account.reserve("t1", -30.0)
        account.commit("t1")
        return account.value

    assert sim.run_process(job()) == 70.0


def test_abort_is_inverse_operation():
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)

    def job():
        yield from account.reserve("t1", -30.0)
        account.abort("t1")
        return account.value

    assert sim.run_process(job()) == 100.0
    assert account.operation_log == [("t1", -30.0)]


def test_concurrent_commutative_ops_interleave():
    """Two subtractions proceed without waiting — no serialization."""
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    times = []

    def txn(tag, delta):
        yield from account.reserve(tag, delta)
        times.append((tag, sim.now))
        yield Timeout(1.0)  # think time while holding the reservation
        account.commit(tag)

    sim.spawn(txn("t1", -40.0))
    sim.spawn(txn("t2", -40.0))
    sim.run()
    assert times == [("t1", 0.0), ("t2", 0.0)]  # both granted immediately
    assert account.value == 20.0


def test_worst_case_blocks_risky_reserve():
    """80+80 pending subtractions from 100 would breach min=0: the second
    waits until the first settles."""
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    grants = []

    def first():
        yield from account.reserve("t1", -80.0)
        grants.append(("t1", sim.now))
        yield Timeout(5.0)
        account.abort("t1")  # frees the headroom

    def second():
        yield from account.reserve("t2", -80.0)
        grants.append(("t2", sim.now))
        account.commit("t2")

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert grants == [("t1", 0.0), ("t2", 5.0)]
    assert account.value == 20.0


def test_worst_case_accounting():
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    sim.spawn(account.reserve("t1", -30.0))
    sim.spawn(account.reserve("t2", 20.0))
    sim.run()
    assert account.worst_case_low == 70.0
    assert account.worst_case_high == 120.0


def test_read_waits_for_pending_and_blocks_later_arrivals():
    """READ does not commute: it drains pending work and holds up later
    reservations (the 'annoying' §5.3 semantics)."""
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    log = []

    def writer():
        yield from account.reserve("t1", -10.0)
        yield Timeout(5.0)
        account.commit("t1")

    def reader():
        yield Timeout(1.0)  # arrive while t1 pending
        value = yield from account.read()
        log.append(("read", value, sim.now))

    def late_writer():
        yield Timeout(2.0)  # arrives after the reader queued
        yield from account.reserve("t2", -10.0)
        log.append(("t2-granted", sim.now))
        account.commit("t2")

    sim.spawn(writer())
    sim.spawn(reader())
    sim.spawn(late_writer())
    sim.run()
    assert log == [("read", 90.0, 5.0), ("t2-granted", 5.0)]


def test_read_immediate_when_quiet():
    sim = Simulator()
    account = EscrowAccount(sim, initial=42.0)

    def job():
        value = yield from account.read()
        return (value, sim.now)

    assert sim.run_process(job()) == (42.0, 0.0)


def test_exclusive_account_serializes():
    sim = Simulator()
    account = ExclusiveAccount(sim, initial=100.0)
    grants = []

    def txn(tag):
        yield account.acquire()
        grants.append((tag, sim.now))
        account.add(-10.0)
        yield Timeout(1.0)
        account.release()

    sim.spawn(txn("t1"))
    sim.spawn(txn("t2"))
    sim.run()
    assert grants == [("t1", 0.0), ("t2", 1.0)]
    assert account.value == 80.0


def test_exclusive_account_bounds():
    sim = Simulator()
    account = ExclusiveAccount(sim, initial=5.0)

    def job():
        yield account.acquire()
        try:
            account.add(-10.0)
        except EscrowOverflow:
            return "blocked"
        finally:
            account.release()

    assert sim.run_process(job()) == "blocked"
