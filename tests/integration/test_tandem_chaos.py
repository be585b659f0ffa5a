"""Chaos integration: random crash points across many seeds must never
lose committed work in either Tandem generation. Each pair's primary
crashes at most once: after its takeover the pair runs without a
backup."""

import pytest

from repro.errors import TransactionAborted
from repro.tandem import DPMode, TandemConfig, TandemSystem


def run_chaos(mode, seed, txns=12):
    system = TandemSystem(TandemConfig(mode=mode, num_dps=2), seed=seed)
    client = system.client()
    rng = system.sim.rng.stream("chaos")
    committed = []
    aborted = []
    crashed = set()

    def workload():
        for t in range(txns):
            txn = client.begin()
            pair = f"dp{t % 2}"
            try:
                yield from client.write(txn, pair, f"k{t}", t)
                if rng.random() < 0.3 and pair not in crashed:
                    crashed.add(pair)
                    system.crash_primary(pair)
                yield from client.write(txn, pair, f"k{t}-b", t)
                yield from client.commit(txn)
            except TransactionAborted:
                aborted.append(txn.id)
                continue
            committed.append((txn.id, pair, f"k{t}"))

    system.sim.run_process(workload())
    return system, client, committed, aborted


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", [DPMode.DP1, DPMode.DP2], ids=["dp1", "dp2"])
def test_committed_work_survives_chaos(mode, seed):
    system, client, committed, aborted = run_chaos(mode, seed)

    def verify():
        reader = client.begin()
        lost = []
        for txn_id, pair, key in committed:
            value = yield from client.read(reader, pair, key)
            if value is None:
                lost.append((txn_id, key))
        return lost

    assert system.sim.run_process(verify()) == []
    assert system.committed_durable()
    if mode is DPMode.DP1:
        # DP1 takeovers are transparent: nothing aborts because of them.
        assert aborted == []


@pytest.mark.parametrize("seed", range(3))
def test_dp2_chaos_aborts_match_registry(seed):
    system, _client, committed, aborted = run_chaos(DPMode.DP2, seed)
    counts = system.registry.counts()
    assert counts["committed"] >= len(committed)
    assert counts["aborted"] >= len(aborted)
    # Every client-visible abort is a registry abort (no silent limbo).
    from repro.tandem import TxnStatus

    for txn_id in aborted:
        assert system.registry.status(txn_id) is TxnStatus.ABORTED
