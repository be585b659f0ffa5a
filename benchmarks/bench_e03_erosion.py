"""E3 — The acceptable erosion of behavior (§3.3).

Claim: a primary DP crash under DP1 is transparent (in-flight work
continues); under DP2 it aborts the in-flight transactions that used the
pair — and neither generation ever loses a *committed* transaction.

Crash the primary while a stream of transactions is mid-flight; count
what aborts and what survives.
"""

from repro.analysis import Table
from repro.errors import TransactionAborted
from repro.sim import Timeout
from repro.tandem import DPMode, TandemConfig, TandemSystem


def run_generation(mode, seed=13, total_txns=20, crash_after=10):
    system = TandemSystem(TandemConfig(mode=mode, num_dps=1), seed=seed)
    client = system.client()
    outcomes = {"committed": 0, "aborted": 0}
    committed_keys = []

    def workload():
        for t in range(total_txns):
            txn = client.begin()
            try:
                yield from client.write(txn, "dp0", f"k{t}", t)
                if t == crash_after:
                    # Crash lands between the WRITE ack and the commit.
                    system.crash_primary("dp0")
                yield from client.write(txn, "dp0", f"k{t}-b", t)
                yield from client.commit(txn)
            except TransactionAborted:
                outcomes["aborted"] += 1
                continue
            outcomes["committed"] += 1
            committed_keys.append(f"k{t}")

    system.sim.run_process(workload())

    def verify():
        reader = client.begin()
        lost = 0
        for key in committed_keys:
            value = yield from client.read(reader, "dp0", key)
            if value is None:
                lost += 1
        return lost

    lost_committed = system.sim.run_process(verify())
    return {
        "committed": outcomes["committed"],
        "aborted_by_crash": outcomes["aborted"],
        "lost_committed": lost_committed,
    }


def run_both():
    return {
        "dp1": run_generation(DPMode.DP1),
        "dp2": run_generation(DPMode.DP2),
    }


def test_e03_erosion():
    results = run_both()
    table = Table(
        "E3  Primary DP crash mid-workload: what aborts, what survives",
        ["generation", "committed", "aborted by crash", "committed lost"],
    )
    table.add_row("DP1 (1984)", results["dp1"]["committed"],
                  results["dp1"]["aborted_by_crash"], results["dp1"]["lost_committed"])
    table.add_row("DP2 (1986)", results["dp2"]["committed"],
                  results["dp2"]["aborted_by_crash"], results["dp2"]["lost_committed"])
    table.print()
    # Shape: DP1 transparent; DP2 aborts the in-flight txn; nobody loses
    # committed work.
    assert results["dp1"]["aborted_by_crash"] == 0
    assert results["dp2"]["aborted_by_crash"] >= 1
    assert results["dp1"]["lost_committed"] == 0
    assert results["dp2"]["lost_committed"] == 0
