"""E1 — Tandem 1984 vs 1986: per-WRITE checkpointing vs log-combined.

Claim (§3.2): DP2 was "a dramatic savings in CPU cost and an even more
dramatic savings in latency since the application did not need to wait
for the checkpoint to see the response to the WRITE."

Sweep writes-per-transaction; report WRITE latency, transaction latency,
and messages per transaction (the CPU proxy) for both generations.
"""

from repro.analysis import Table, ratio
from repro.tandem import DPMode, TandemConfig, TandemSystem


def run_generation(mode, writes_per_txn, txns=30, seed=11):
    system = TandemSystem(TandemConfig(mode=mode, num_dps=1), seed=seed)
    client = system.client()

    def job():
        for t in range(txns):
            txn = client.begin()
            for w in range(writes_per_txn):
                yield from client.write(txn, "dp0", f"k{t}-{w}", w)
            yield from client.commit(txn)

    system.sim.run_process(job())
    metrics = system.sim.metrics
    return {
        "write_latency": metrics.histogram("tandem.write_latency").mean,
        "commit_latency": metrics.histogram("tandem.commit_latency").mean,
        "messages_per_txn": metrics.counter("net.sent").value / txns,
    }


def run_sweep():
    rows = []
    for writes_per_txn in (1, 2, 4, 8):
        dp1 = run_generation(DPMode.DP1, writes_per_txn)
        dp2 = run_generation(DPMode.DP2, writes_per_txn)
        rows.append((writes_per_txn, dp1, dp2))
    return rows


def test_e01_tandem_checkpointing():
    rows = run_sweep()
    table = Table(
        "E1  Tandem DP1 (sync per-WRITE checkpoint) vs DP2 (log-combined)",
        ["writes/txn", "DP1 write ms", "DP2 write ms", "write speedup",
         "DP1 msgs/txn", "DP2 msgs/txn", "msg savings"],
    )
    for writes_per_txn, dp1, dp2 in rows:
        table.add_row(
            writes_per_txn,
            dp1["write_latency"] * 1e3,
            dp2["write_latency"] * 1e3,
            ratio(dp1["write_latency"], dp2["write_latency"]),
            dp1["messages_per_txn"],
            dp2["messages_per_txn"],
            ratio(dp1["messages_per_txn"], dp2["messages_per_txn"]),
        )
    table.print()
    # Shape: DP2 wins on WRITE latency (≥1.5x) and on messages, and the
    # message savings grow with writes per transaction.
    for _w, dp1, dp2 in rows:
        assert dp2["write_latency"] < dp1["write_latency"] / 1.5
        assert dp2["messages_per_txn"] < dp1["messages_per_txn"]
    first_savings = ratio(rows[0][1]["messages_per_txn"], rows[0][2]["messages_per_txn"])
    last_savings = ratio(rows[-1][1]["messages_per_txn"], rows[-1][2]["messages_per_txn"])
    assert last_savings > first_savings
