"""Happy-path transactions in both DP generations."""

import pytest

from repro.tandem import DPMode, TandemConfig, TandemSystem


@pytest.fixture(params=[DPMode.DP1, DPMode.DP2], ids=["dp1", "dp2"])
def system(request):
    return TandemSystem(TandemConfig(mode=request.param, num_dps=2), seed=1)


def test_write_commit_read(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 10)
        yield from client.commit(txn)
        txn2 = client.begin()
        value = yield from client.read(txn2, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 10


def test_transaction_reads_own_writes(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 5)
        value = yield from client.read(txn, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 5


def test_uncommitted_write_invisible_to_others(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 5)
        other = client.begin()
        value = yield from client.read(other, "dp0", "x")
        return value

    assert system.sim.run_process(job()) is None


def test_multi_dp_transaction(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "a", 1)
        yield from client.write(txn, "dp1", "b", 2)
        yield from client.commit(txn)
        reader = client.begin()
        a = yield from client.read(reader, "dp0", "a")
        b = yield from client.read(reader, "dp1", "b")
        return (a, b)

    assert system.sim.run_process(job()) == (1, 2)


def test_commit_reaches_adp(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.commit(txn)
        return txn.id

    txn_id = system.sim.run_process(job())
    assert txn_id in system.adp.committed_txns()


def test_commit_log_durable_at_adp(system):
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.write(txn, "dp0", "y", 2)
        yield from client.commit(txn)

    system.sim.run_process(job())
    records = system.adp.durable_records_for("dp0")
    writes = [r for r in records if r["kind"] == "WRITE"]
    assert {(r["key"], r["value"]) for r in writes} == {("x", 1), ("y", 2)}


def test_sequential_transactions_accumulate(system):
    client = system.client()

    def job():
        for i in range(5):
            txn = client.begin()
            yield from client.write(txn, "dp0", f"k{i}", i)
            yield from client.commit(txn)
        reader = client.begin()
        values = []
        for i in range(5):
            values.append((yield from client.read(reader, "dp0", f"k{i}")))
        return values

    assert system.sim.run_process(job()) == [0, 1, 2, 3, 4]


def test_concurrent_clients_disjoint_keys(system):
    clients = [system.client() for _ in range(3)]

    def job(client, tag):
        txn = client.begin()
        yield from client.write(txn, "dp0", tag, tag)
        yield from client.commit(txn)

    for i, client in enumerate(clients):
        system.sim.spawn(job(client, f"key-{i}"))
    system.sim.run()
    state = system.pair("dp0").state()
    assert {f"key-{i}" for i in range(3)} <= set(state.committed)
