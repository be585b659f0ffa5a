"""Takeover without a crash: the tandem backup promotes itself while the
old primary is still alive — and the primary-identity guard is what
fences the deposed side's traffic."""

import pytest

from repro.errors import SimulationError, TransactionAborted
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.tandem import DPMode, TandemConfig, TandemSystem, TxnStatus


def make_system(mode, seed=1):
    return TandemSystem(TandemConfig(mode=mode, num_dps=2), seed=seed)


def test_take_over_flips_primary_without_stopping_the_old_side():
    system = make_system(DPMode.DP2)
    pair = system.pair("dp0")
    old = pair.current
    system.take_over("dp0")
    assert pair.current == pair.backup_name
    # Unlike crash_primary, the deposed side is still on the network.
    assert system.network.is_attached(old)
    assert system.sim.metrics.counter("tandem.dp0.takeovers").value == 1


def test_deposed_primary_rejects_traffic_at_the_guard():
    system = make_system(DPMode.DP2)
    client = system.client()
    pair = system.pair("dp0")
    old = pair.current
    system.take_over("dp0")
    probe = Endpoint(system.network, "probe")
    probe.start()

    def job():
        txn = client.begin()
        # A client that still believes in the deposed side: the write is
        # refused at the primary-identity guard, not applied.
        with pytest.raises(RpcError):
            yield from probe.call(
                old, "WRITE", {"txn": txn.id, "key": "x", "value": 9},
                policy=RetryPolicy(max_attempts=1, timeout=1.0),
            )
        # The same verb at the promoted side works.
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.commit(txn)
        reader = client.begin()
        value = yield from client.read(reader, "dp0", "x")
        return value

    assert system.sim.run_process(job()) == 1
    # The refused write never reached either side's state.
    assert "x" not in system.pair("dp0").state(old).committed


def test_dp2_take_over_aborts_inflight_like_a_crash():
    system = make_system(DPMode.DP2)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        aborted = system.take_over("dp0")
        assert aborted == [txn.id]
        try:
            yield from client.commit(txn)
        except TransactionAborted:
            return "aborted"
        return "committed"

    assert system.sim.run_process(job()) == "aborted"
    assert system.sim.metrics.counter("tandem.aborted_by_takeover").value == 1


def test_dp1_inflight_transaction_survives_take_over():
    system = make_system(DPMode.DP1)
    client = system.client()

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        aborted = system.take_over("dp0")
        assert aborted == []
        yield from client.write(txn, "dp0", "y", 2)
        yield from client.commit(txn)
        reader = client.begin()
        x = yield from client.read(reader, "dp0", "x")
        y = yield from client.read(reader, "dp0", "y")
        return (x, y)

    assert system.sim.run_process(job()) == (1, 2)


def test_committed_work_survives_take_over():
    for mode in (DPMode.DP1, DPMode.DP2):
        system = make_system(mode)
        client = system.client()

        def job():
            txn = client.begin()
            yield from client.write(txn, "dp0", "x", 42)
            yield from client.commit(txn)
            system.take_over("dp0")
            reader = client.begin()
            value = yield from client.read(reader, "dp0", "x")
            return value

        assert system.sim.run_process(job()) == 42


def test_take_over_fails_stranded_flush_waiters():
    """A FLUSH riding the group-commit bus when the takeover lands must
    abort cleanly instead of waiting forever for a bus that was
    cancelled."""
    system = make_system(DPMode.DP2)
    client = system.client()
    pair = system.pair("dp0")
    outcome = {}

    def committer():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        try:
            yield from client.commit(txn)
            outcome["result"] = "committed"
        except (TransactionAborted, RpcError):
            outcome["result"] = "aborted"

    system.sim.spawn(committer())
    # Let the WRITE land and the FLUSH start waiting on the ship timer,
    # then depose the primary out from under it.
    system.sim.run(until=pair.config.group_commit_timer / 2)
    system.take_over("dp0")
    system.sim.run(until=10.0)
    assert outcome["result"] == "aborted"
    assert pair._ship_waiters == []


def test_second_take_over_flips_back():
    system = make_system(DPMode.DP2)
    client = system.client()
    pair = system.pair("dp0")
    first = pair.current

    def job():
        txn = client.begin()
        yield from client.write(txn, "dp0", "x", 1)
        yield from client.commit(txn)
        system.take_over("dp0")
        txn2 = client.begin()
        yield from client.write(txn2, "dp0", "y", 2)
        yield from client.commit(txn2)
        system.take_over("dp0")
        reader = client.begin()
        x = yield from client.read(reader, "dp0", "x")
        y = yield from client.read(reader, "dp0", "y")
        return (x, y)

    result = system.sim.run_process(job())
    assert pair.current == first
    # x committed before the first flip is everywhere; y needs the log
    # shipped to the original side, which stayed alive the whole time.
    assert result == (1, 2)
