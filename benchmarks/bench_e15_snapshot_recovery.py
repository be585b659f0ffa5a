"""E15 — Snapshot + tail recovery: cadence vs recovery time and loss window.

The §3 asynchronous-checkpoint bargain, measured at the recovery end:
how fast can a cold-restarted log-ship backup rejoin, as a function of
how often it checkpointed? Tighter cadence → shorter WAL tail to replay
and a smaller re-ship window, at the cost of more checkpoint IO. And the
headline property: with snapshots, recovery cost tracks the *tail*
length, not the total log — double the history and the rejoin bill
barely moves, while the no-snapshot path pays for every record ever
written.

Run with ``pytest benchmarks/bench_e15_snapshot_recovery.py -s`` to print
the tables.
"""

from repro.analysis import Table
from repro.logship import LogShippingSystem
from repro.sim import Timeout


def run_case(cadence, total_txns=60, seed=9):
    """Commit on east, fail over, then have east cold-rejoin.

    East is the interesting side: its WAL holds the whole history, so its
    recovery replays snapshot + tail — the tail being however much the
    checkpoint cadence let pile up since the last cut.
    """
    system = LogShippingSystem(
        ship_interval=0.02, seed=seed, snapshot_cadence=cadence
    )

    def job():
        for i in range(total_txns):
            yield from system.submit({f"k{i % 7}": i})
            yield Timeout(0.05)
        yield Timeout(0.5)  # shipper + snapshotter settle
        system.fail_over()  # east crashes cold; west serves
        for i in range(5):  # the world moves on without it
            yield from system.submit({f"post{i}": i})
            yield Timeout(0.05)
        shipped_before = system.sim.metrics.counters().get(
            "logship.shipped_records", 0
        )
        result = yield from system.rejoin("east")
        yield Timeout(2.0)  # the re-ship drains
        reshipped = (
            system.sim.metrics.counters()["logship.shipped_records"]
            - shipped_before
        )
        return result, reshipped

    result, reshipped = system.sim.run_process(job())
    counters = system.sim.metrics.counters()
    assert system.backup.state == system.primary.state, "rejoin diverged"
    return {
        "cadence": cadence,
        "total_txns": total_txns,
        "snapshots_taken": counters.get("snapshot.east.snap.installed", 0),
        "snapshot_lsn": result["snapshot_lsn"],
        "tail_replayed": result["replayed_records"],
        "recovery_ms": result["recovery_time"] * 1e3,
        "rejoin_ms": result["rejoin_time"] * 1e3,
        "reshipped": reshipped,
    }


def run_cadence_sweep():
    """The claim table: recovery time vs checkpoint cadence."""
    return [run_case(cadence) for cadence in (None, 2.0, 1.0, 0.5, 0.25)]


def run_scaling_sweep():
    """The scaling evidence: same outage, growing history."""
    rows = []
    for total in (30, 60, 120):
        snap = run_case(0.5, total_txns=total)
        full = run_case(None, total_txns=total)
        rows.append({
            "total_txns": total,
            "snap_tail": snap["tail_replayed"],
            "snap_recovery_ms": snap["recovery_ms"],
            "full_tail": full["tail_replayed"],
            "full_recovery_ms": full["recovery_ms"],
        })
    return rows


def _check_shapes(cadence_rows, scaling_rows):
    by_cadence = {row["cadence"]: row for row in cadence_rows}
    # Checkpointing happened, and tighter cadence never replays a longer
    # tail than no snapshot at all.
    assert by_cadence[None]["snapshots_taken"] == 0
    assert by_cadence[0.25]["snapshots_taken"] > by_cadence[2.0]["snapshots_taken"]
    assert by_cadence[0.25]["tail_replayed"] < by_cadence[None]["tail_replayed"]
    assert by_cadence[0.25]["reshipped"] <= by_cadence[None]["reshipped"]
    # Recovery time tracks the tail, not the log: 4x the history costs the
    # full-replay path ~4x, the snapshot path stays near-flat.
    small, large = scaling_rows[0], scaling_rows[-1]
    full_growth = large["full_recovery_ms"] / max(small["full_recovery_ms"], 1e-9)
    snap_growth = large["snap_recovery_ms"] / max(small["snap_recovery_ms"], 1e-9)
    assert full_growth > 2.0, full_growth
    assert snap_growth < 1.5, snap_growth


def test_e15_snapshot_recovery():
    cadence_rows = run_cadence_sweep()
    scaling_rows = run_scaling_sweep()
    table = Table(
        "E15  Snapshot + tail recovery: checkpoint cadence vs rejoin cost",
        ["cadence s", "snapshots", "covered lsn", "tail replayed",
         "recovery ms", "re-shipped"],
    )
    for row in cadence_rows:
        table.add_row(
            "none" if row["cadence"] is None else f"{row['cadence']:g}",
            row["snapshots_taken"], row["snapshot_lsn"],
            row["tail_replayed"], round(row["recovery_ms"], 2),
            row["reshipped"],
        )
    table.print()
    scaling = Table(
        "E15b Recovery cost scales with the tail, not the log",
        ["total txns", "snap tail", "snap recovery ms",
         "full tail", "full recovery ms"],
    )
    for row in scaling_rows:
        scaling.add_row(
            row["total_txns"], row["snap_tail"],
            round(row["snap_recovery_ms"], 2),
            row["full_tail"], round(row["full_recovery_ms"], 2),
        )
    scaling.print()
    _check_shapes(cadence_rows, scaling_rows)
