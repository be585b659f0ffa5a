"""E6 — Escrow locking vs exclusive locking (§5.3 sidebar).

Claims: commutative add/subtract transactions interleave under escrow
where exclusive locking serializes them; "if any transaction dares to
READ the value, that does not commute, is annoying, and stops other
concurrent work."

Hot account, N concurrent transactions each holding its reservation for
think-time T; sweep concurrency and READ fraction.
"""

from repro.analysis import Table, ratio
from repro.core import EscrowAccount, ExclusiveAccount
from repro.sim import Simulator, Timeout


THINK_TIME = 0.01


def run_escrow(concurrency, read_fraction, seed=3, txns_per_worker=10):
    sim = Simulator(seed=seed)
    account = EscrowAccount(sim, initial=1e9)
    rng = sim.rng.stream("mix")

    def worker(worker_id):
        for t in range(txns_per_worker):
            txn_id = f"w{worker_id}-t{t}"
            if rng.random() < read_fraction:
                yield from account.read()
            else:
                delta = -10.0 if rng.random() < 0.5 else 10.0
                yield from account.reserve(txn_id, delta)
                yield Timeout(THINK_TIME)
                account.commit(txn_id)

    for w in range(concurrency):
        sim.spawn(worker(w))
    sim.run()
    return sim.now


def run_exclusive(concurrency, read_fraction, seed=3, txns_per_worker=10):
    sim = Simulator(seed=seed)
    account = ExclusiveAccount(sim, initial=1e9)
    rng = sim.rng.stream("mix")

    def worker(worker_id):
        for _t in range(txns_per_worker):
            yield account.acquire()
            try:
                if rng.random() < read_fraction:
                    account.read()
                else:
                    account.add(-10.0 if rng.random() < 0.5 else 10.0)
                    yield Timeout(THINK_TIME)
            finally:
                account.release()

    for w in range(concurrency):
        sim.spawn(worker(w))
    sim.run()
    return sim.now


def run_sweep():
    rows = []
    for concurrency in (1, 4, 16, 64):
        escrow_time = run_escrow(concurrency, read_fraction=0.0)
        exclusive_time = run_exclusive(concurrency, read_fraction=0.0)
        rows.append(("writes only", concurrency, escrow_time, exclusive_time))
    for read_fraction in (0.1, 0.5):
        escrow_time = run_escrow(16, read_fraction)
        exclusive_time = run_exclusive(16, read_fraction)
        rows.append((f"{int(read_fraction * 100)}% READs", 16, escrow_time, exclusive_time))
    return rows


def test_e06_escrow():
    rows = run_sweep()
    table = Table(
        "E6  Makespan of a hot-account workload (10ms think time per txn)",
        ["mix", "concurrency", "escrow s", "exclusive s", "escrow speedup"],
    )
    for mix, concurrency, escrow_time, exclusive_time in rows:
        table.add_row(mix, concurrency, escrow_time, exclusive_time,
                      ratio(exclusive_time, escrow_time))
    table.print()
    by_key = {(mix, c): (e, x) for mix, c, e, x in rows}
    # Shape: at concurrency 64 escrow crushes exclusive; READs erode the
    # advantage.
    assert by_key[("writes only", 64)][0] < by_key[("writes only", 64)][1] / 10
    speedup_no_reads = by_key[("writes only", 16)][1] / by_key[("writes only", 16)][0]
    speedup_half_reads = by_key[("50% READs", 16)][1] / by_key[("50% READs", 16)][0]
    assert speedup_half_reads < speedup_no_reads
