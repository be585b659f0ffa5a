"""Rejoin after takeover: snapshot + tail instead of full replay."""

from repro.logship import LogShippingSystem
from repro.sim import Timeout


def run_workload(system, n, dwell=0.05):
    """Commit n txns with time between them (so snapshots interleave)."""
    for i in range(n):
        yield from system.submit({f"k{i % 7}": i})
        yield Timeout(dwell)


def test_backup_cold_restart_recovers_replayed_state():
    """A cold-crashed backup loses its in-memory replayed state; the
    snapshot restores it and CATCHUP re-ships only the tail."""
    system = LogShippingSystem(ship_interval=0.02, seed=3, snapshot_cadence=0.5)

    def job():
        yield from run_workload(system, 40)
        yield Timeout(1.0)  # shipper + snapshotter settle
        applied_before = set(system.backup.applied_txns)
        system.backup.crash()
        yield from run_workload(system, 5)  # primary keeps serving
        result = yield from system.rejoin()
        yield Timeout(2.0)  # re-ship the tail
        return applied_before, result

    applied_before, result = system.sim.run_process(job())
    # The snapshot did the heavy lifting: recovery started from a real cut.
    assert result["applied_peer_lsn"] > 0
    assert result["reship_from"] == result["applied_peer_lsn"]
    # Everything the backup had applied is back, plus the tail it missed.
    assert applied_before <= system.backup.applied_txns
    assert system.backup.state == system.primary.state


def test_rejoin_without_snapshots_reships_from_zero():
    system = LogShippingSystem(ship_interval=0.02, seed=3)

    def job():
        yield from run_workload(system, 20)
        yield Timeout(1.0)
        system.backup.crash()
        result = yield from system.rejoin()
        yield Timeout(2.0)
        return result

    result = system.sim.run_process(job())
    assert result["snapshot_lsn"] == 0
    assert result["reship_from"] == 0  # the peer starts over
    assert system.backup.state == system.primary.state


def test_snapshot_shrinks_reship_volume():
    """The point of the exercise: with snapshots the peer re-ships a tail,
    without them it re-ships the entire history."""
    volumes = {}
    for cadence in (None, 0.5):
        system = LogShippingSystem(
            ship_interval=0.02, seed=7, snapshot_cadence=cadence
        )

        def job():
            yield from run_workload(system, 50)
            yield Timeout(1.0)
            system.backup.crash()
            shipped_before = system.sim.metrics.counters().get(
                "logship.shipped_records", 0
            )
            yield from system.rejoin()
            yield Timeout(3.0)
            reshipped = (
                system.sim.metrics.counters()["logship.shipped_records"]
                - shipped_before
            )
            return reshipped

        volumes[cadence] = system.sim.run_process(job())
        assert system.backup.state == system.primary.state
    assert volumes[0.5] < volumes[None]


def test_old_primary_rejoins_after_takeover():
    """The full §5.1 cycle with recovery: primary dies, backup takes over,
    the corpse cold-restarts from its snapshot and becomes the backup."""
    system = LogShippingSystem(ship_interval=0.02, seed=11, snapshot_cadence=0.4)

    def job():
        yield from run_workload(system, 30)
        yield Timeout(1.0)
        system.fail_over()  # east crashes, west serves
        yield from run_workload(system, 10)
        result = yield from system.rejoin("east")
        yield Timeout(2.0)
        return result

    result = system.sim.run_process(job())
    assert system.serving == "west"
    assert result["replayed_records"] >= 0
    east, west = system.sites["east"], system.sites["west"]
    # East caught up on everything west decided after the takeover.
    assert west.committed_local <= east.applied_txns
    # Recovery time was accounted.
    assert system.sim.metrics.histogram("logship.rejoin.time_s").count == 1


def test_recovery_time_scales_with_tail_not_log():
    """Same tail, double the history: rejoin cost stays flat when a
    snapshot covers the bulk."""
    times = []
    for total in (30, 60):
        system = LogShippingSystem(
            ship_interval=0.02, seed=5, snapshot_cadence=0.25
        )

        def job():
            yield from run_workload(system, total)
            yield Timeout(1.0)
            system.backup.crash()
            yield Timeout(0.1)  # a short outage: small tail either way
            result = yield from system.rejoin()
            return result["recovery_time"]

        times.append(system.sim.run_process(job()))
    # Flat within 50% despite 2x the log (pure tail replay + snapshot load;
    # the snapshot chain is bounded by compaction).
    assert times[1] < times[0] * 1.5


def test_a_warm_restarted_site_checkpoints_again():
    """The crash ends a site's checkpoint loop with its endpoint, and a
    warm restart resumes it: the writes east replays after
    ``recover_orphans`` land in a new checkpoint."""
    system = LogShippingSystem(snapshot_cadence=0.5, seed=1)
    installs = system.sim.metrics.histogram("snapshot.east.tail_at_install")

    def job():
        yield from run_workload(system, 5)
        system.fail_over()
        system.recover_orphans()
        restarted_with = installs.count
        yield from run_workload(system, 5)
        yield Timeout(3.0)
        return restarted_with

    restarted_with = system.sim.run_process(job())
    assert system.serving == "west" and not system.backup.crashed
    assert installs.count > restarted_with
