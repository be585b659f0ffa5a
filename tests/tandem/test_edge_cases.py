"""Tandem edge cases: empty transactions, zero timers, contention,
reads around takeover aborts."""

import pytest

from repro.errors import TransactionAborted
from repro.tandem import DPMode, TandemConfig, TandemSystem


def test_commit_empty_transaction():
    for mode in (DPMode.DP1, DPMode.DP2):
        system = TandemSystem(TandemConfig(mode=mode, num_dps=1), seed=1)
        client = system.client()

        def job():
            txn = client.begin()
            yield from client.commit(txn)  # no writes anywhere
            return txn.id

        txn_id = system.sim.run_process(job())
        assert txn_id in system.adp.committed_txns()


def test_zero_group_commit_timer():
    config = TandemConfig(mode=DPMode.DP2, num_dps=1)
    config.group_commit_timer = 0.0  # a class constant, shadowed here
    system = TandemSystem(config, seed=1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.commit(txn)
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 1


def test_read_after_abort_sees_nothing():
    system = TandemSystem(TandemConfig(mode=DPMode.DP2, num_dps=1), seed=1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        system.crash_primary("dp0")  # DP2 takeover aborts the txn
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) is None


def test_write_to_aborted_transaction_rejected():
    system = TandemSystem(TandemConfig(mode=DPMode.DP2, num_dps=1), seed=1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        system.crash_primary("dp0")  # DP2 takeover aborts the txn
        try:
            yield from client.write(txn, "dp0", "y", 2)
        except TransactionAborted:
            return "refused"
        return "accepted"

    assert system.sim.run_process(job()) == "refused"


def test_many_concurrent_clients_one_pair():
    system = TandemSystem(TandemConfig(mode=DPMode.DP2, num_dps=1), seed=1)
    clients = [system.client() for _ in range(8)]
    done = []

    def job(client, tag):
        txn = client.begin()
        yield from client.write(txn, "dp0", f"key-{tag}", tag)
        yield from client.commit(txn)
        done.append(tag)

    for index, client in enumerate(clients):
        system.sim.spawn(job(client, index))
    system.sim.run()
    assert sorted(done) == list(range(8))
    state = system.pair("dp0").state()
    assert all(state.committed.get(f"key-{i}") == i for i in range(8))


def test_last_writer_wins_within_transaction():
    system = TandemSystem(TandemConfig(mode=DPMode.DP2, num_dps=1), seed=1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.write(txn, "dp0", "x", 2)
        yield from client.commit(txn)
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 2
