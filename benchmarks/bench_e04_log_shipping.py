"""E4 — Log shipping: the loss window vs the latency of being safe (§4).

Claims: async shipping loses the committed-but-unshipped tail on
takeover, and the window grows with the shipping interval; synchronous
shipping loses nothing but "this delay is unacceptable in most
installations."
"""

from repro.analysis import Table
from repro.logship import LogShippingSystem, ShipMode
from repro.sim import Timeout


def run_point(mode, ship_interval, seed, txns=40, crash_at_txn=30):
    system = LogShippingSystem(mode=mode, ship_interval=ship_interval, seed=seed)

    def workload():
        rng = system.sim.rng.stream("load")
        for i in range(txns):
            yield Timeout(rng.expovariate(1.0 / 0.02))  # ~50 txns/sec offered
            yield from system.submit({f"k{i}": i})
            if i == crash_at_txn:
                break
        result = system.fail_over()
        return result

    result = system.sim.run_process(workload())
    hist = system.sim.metrics.histogram("logship.commit_latency")
    acked = system.sim.metrics.counter("logship.acked_commits").value
    return {
        "lost": len(result["lost_txns"]),
        "acked": acked,
        "commit_ms": hist.mean * 1e3,
    }


def run_sweep():
    rows = []
    for label, mode, interval in (
        ("sync", ShipMode.SYNC, 0.0),
        ("async 10ms", ShipMode.ASYNC, 0.01),
        ("async 100ms", ShipMode.ASYNC, 0.1),
        ("async 1s", ShipMode.ASYNC, 1.0),
    ):
        # Average over seeds: the loss count depends on crash phase.
        points = [run_point(mode, interval, seed) for seed in range(5)]
        rows.append(
            (label,
             sum(p["commit_ms"] for p in points) / len(points),
             sum(p["lost"] for p in points) / len(points),
             sum(p["acked"] for p in points) / len(points))
        )
    return rows


def test_e04_log_shipping():
    rows = run_sweep()
    table = Table(
        "E4  Log shipping: commit latency vs committed work lost at takeover",
        ["mode", "commit latency ms", "avg committed txns lost", "avg acked"],
    )
    for label, commit_ms, lost, acked in rows:
        table.add_row(label, commit_ms, lost, acked)
    table.print()
    by_label = {row[0]: row for row in rows}
    # Shape: sync never loses but pays the WAN on every commit; async loss
    # grows with the shipping interval.
    assert by_label["sync"][2] == 0.0
    assert by_label["sync"][1] > by_label["async 100ms"][1] * 2
    assert by_label["async 10ms"][2] <= by_label["async 100ms"][2] <= by_label["async 1s"][2]
    assert by_label["async 1s"][2] > 0
