"""Takeover semantics: the §3.3 "acceptable erosion of behavior".

DP1 (1984): a primary crash is transparent — in-flight transactions
continue, because every acked WRITE was checkpointed.
DP2 (1986): a primary crash aborts in-flight transactions that used the
pair — but never a committed one.
"""

import pytest

from repro.errors import TransactionAborted
from repro.tandem import DPMode, TandemConfig, TandemSystem, TxnStatus


def make_system(mode, seed=1):
    return TandemSystem(TandemConfig(mode=mode, num_dps=2), seed=seed)


def test_dp1_inflight_transaction_survives_takeover():
    system = make_system(DPMode.DP1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        aborted = system.crash_primary("dp0")
        assert aborted == []
        yield from client.write(txn, "dp0", "y", 2)
        yield from client.commit(txn)
        reader = client.begin()
        x = yield from client.read(reader, "dp0", "x")
        y = yield from client.read(reader, "dp0", "y")
        return (x, y)

    assert system.sim.run_process(job()) == (1, 2)


def test_dp2_inflight_transaction_aborted_by_takeover():
    system = make_system(DPMode.DP2)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        aborted = system.crash_primary("dp0")
        assert aborted == [txn.id]
        try:
            yield from client.commit(txn)
        except TransactionAborted:
            return "aborted"
        return "committed"

    assert system.sim.run_process(job()) == "aborted"


def test_dp2_committed_transaction_survives_takeover():
    system = make_system(DPMode.DP2)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 42)
        yield from client.commit(txn)
        system.crash_primary("dp0")
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 42


def test_dp1_committed_transaction_survives_takeover():
    system = make_system(DPMode.DP1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 42)
        yield from client.commit(txn)
        system.crash_primary("dp0")
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 42


def test_dp2_takeover_only_aborts_transactions_at_failed_pair():
    system = make_system(DPMode.DP2)
    client = system.client()

    def job():
        touches_dp0 = client.begin()
        only_dp1 = client.begin()
        yield from client.write(touches_dp0, "dp0", "a", 1)
        yield from client.write(only_dp1, "dp1", "b", 2)
        aborted = system.crash_primary("dp0")
        assert aborted == [touches_dp0.id]
        yield from client.commit(only_dp1)
        return system.registry.status(only_dp1.id)

    assert system.sim.run_process(job()) is TxnStatus.COMMITTED


def test_dp2_multi_dp_transaction_aborts_everywhere():
    """A txn that dirtied dp0 and dp1 aborts when dp0's primary dies; its
    pending writes at dp1 must be discarded too."""
    system = make_system(DPMode.DP2)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "a", 1)
        yield from client.write(txn, "dp1", "b", 2)
        system.crash_primary("dp0")
        try:
            yield from client.commit(txn)
        except TransactionAborted:
            pass
        reader = client.begin()
        b = yield from client.read(reader, "dp1", "b")
        return b

    assert system.sim.run_process(job()) is None


def test_write_after_takeover_goes_to_new_primary():
    system = make_system(DPMode.DP2)
    client = system.client()
    pair = system.pair("dp0")
    original_primary = pair.current

    def job():
        system.crash_primary("dp0")
        assert pair.current != original_primary
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 7)
        yield from client.commit(txn)
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 7


def test_committed_never_lost_invariant():
    for mode in (DPMode.DP1, DPMode.DP2):
        system = make_system(mode)
        client = system.client()

        def job():
            for i in range(5):
                txn = client.begin()
                yield from client.write(txn, "dp0", f"k{i}", i)
                try:
                    yield from client.commit(txn)
                except TransactionAborted:
                    pass
                if i == 2:
                    system.crash_primary("dp0")

        system.sim.run_process(job())
        assert system.committed_durable()
