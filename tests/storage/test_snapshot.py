"""Snapshot layer: atomic cuts, incremental chains, tail recovery."""

import pytest

from repro.errors import CrashedError, SimulationError
from repro.sim import Simulator
from repro.sim.events import Timeout
from repro.storage import (
    Disk,
    SnapshotStore,
    Snapshotter,
    WriteAheadLog,
    apply_txn_record,
    recover,
)


def make_stack(seed=0, max_chain=SnapshotStore.max_chain):
    """A WAL and a snapshot store; a shorter ``max_chain`` than the
    production one compacts within a few installs."""
    sim = Simulator(seed=seed)
    wal = WriteAheadLog(sim, Disk(sim, name="log"))
    store = SnapshotStore(sim, Disk(sim, name="snapdisk"))
    store.max_chain = max_chain
    return sim, wal, store


def commit(wal, txn_id, **writes):
    """Append a WRITE-per-key + COMMIT transaction to the WAL buffer."""
    for key, value in writes.items():
        wal.append("WRITE", txn_id=txn_id, key=key, value=value)
    wal.append("COMMIT", txn_id=txn_id)


def replay_all(wal):
    """Straight-line replay of the whole durable log (the slow baseline)."""
    state, staged, applied = {}, {}, set()
    for r in wal.durable_records():
        apply_txn_record(state, staged, applied, r.kind, r.txn_id, r.payload)
    return state


# ----------------------------------------------------------------------
# apply_txn_record discipline


def test_write_stages_commit_applies():
    state, staged, applied = {}, {}, set()
    assert apply_txn_record(state, staged, applied, "WRITE", 1, {"key": "a", "value": 1}) is None
    assert state == {}
    writes = apply_txn_record(state, staged, applied, "COMMIT", 1, {})
    assert writes == {"a": 1}
    assert state == {"a": 1}
    assert applied == {1}


def test_replay_is_idempotent_by_txn():
    state, staged, applied = {}, {}, set()
    for _ in range(2):
        apply_txn_record(state, staged, applied, "WRITE", 1, {"key": "a", "value": 1})
        apply_txn_record(state, staged, applied, "COMMIT", 1, {})
    apply_txn_record(state, staged, applied, "WRITE", 1, {"key": "a", "value": 99})
    assert state == {"a": 1}  # second pass and late WRITE are no-ops


def test_unknown_kinds_ignored():
    state, staged, applied = {}, {}, set()
    assert apply_txn_record(state, staged, applied, "NOOP", None, {}) is None
    assert (state, staged) == ({}, {})


# ----------------------------------------------------------------------
# SnapshotStore chains


def test_first_snapshot_is_full():
    sim, _wal, store = make_stack()

    def run():
        record = yield from store.install({"a": 1, "b": 2}, lsn=5)
        return record

    record = sim.run_process(run())
    assert record.base_id is None
    assert record.delta == {"a": 1, "b": 2}
    assert store.latest_lsn == 5


def test_incremental_delta_and_removals():
    sim, _wal, store = make_stack()

    def run():
        yield from store.install({"a": 1, "b": 2}, lsn=5)
        record = yield from store.install({"a": 1, "b": 3, "c": 4}, lsn=9)
        return record

    record = sim.run_process(run())
    assert record.base_id is not None
    assert record.delta == {"b": 3, "c": 4}  # unchanged "a" not rewritten

    def run2():
        record = yield from store.install({"b": 3}, lsn=12)
        return record

    record2 = sim.run_process(run2())
    assert record2.removed == ("a", "c")
    snap = store.peek_materialize()
    assert snap.state == {"b": 3}
    assert snap.lsn == 12
    assert snap.chain_length == 3


def test_chain_compacts_past_max():
    sim, _wal, store = make_stack(max_chain=3)

    def run():
        for i in range(1, 6):
            yield from store.install({"k": i}, lsn=i)

    sim.run_process(run())
    snap = store.peek_materialize()
    assert snap.state == {"k": 5}
    # installs 1..3 chain, 4 compacts to full, 5 chains onto it
    assert snap.chain_length == 2
    assert sim.metrics.counters()["snapshot.snap.compactions"] == 1


def test_lsn_regression_rejected():
    sim, _wal, store = make_stack()

    def run():
        yield from store.install({"a": 1}, lsn=5)
        yield from store.install({"a": 2}, lsn=4)

    with pytest.raises(SimulationError):
        sim.run_process(run())


def test_failed_install_leaves_prior_chain_intact():
    sim, _wal, store = make_stack()

    def run():
        yield from store.install({"a": 1}, lsn=5)
        store.disk.fail()
        try:
            yield from store.install({"a": 2}, lsn=9)
        except CrashedError:
            pass
        store.disk.repair()

    sim.run_process(run())
    snap = store.peek_materialize()
    assert snap.state == {"a": 1}
    assert snap.lsn == 5


# ----------------------------------------------------------------------
# Snapshotter: the asynchronous cut


def test_cut_is_atomic_but_write_is_timed():
    sim, wal, store = make_stack()
    live = {}

    def capture():
        return dict(live), {}

    snapper = Snapshotter(sim, wal, capture, store, cadence=1.0)

    def run():
        commit(wal, "t1", a=1)
        yield from wal.flush()
        live["a"] = 1
        before = sim.now
        record = yield from snapper.take()
        assert sim.now > before  # the install cost sim time...
        return record

    record = sim.run_process(run())
    assert record.lsn == wal.durable_lsn  # ...but the cut saw the pre-write LSN
    assert record.delta == {"a": 1}


def test_writes_continue_during_capture():
    """Appends racing the snapshot land in the next tail, not the snapshot."""
    sim, wal, store = make_stack()
    live = {}

    def capture():
        return dict(live), {}

    snapper = Snapshotter(sim, wal, capture, store, cadence=1.0)

    def writer():
        for i in range(10):
            commit(wal, f"w{i}", k=i)
            yield from wal.flush()
            live["k"] = i
            yield Timeout(0.003)

    def run():
        sim.spawn(writer(), name="writer")
        yield Timeout(0.01)
        record = yield from snapper.take()
        yield Timeout(1.0)
        return record

    record = sim.run_process(run())
    assert record.lsn <= wal.durable_lsn
    assert wal.last_lsn > record.lsn  # writes kept flowing past the cut


def test_snapshotter_loop_takes_periodic_snapshots():
    sim, wal, store = make_stack()
    live = {}

    def capture():
        return dict(live), {}

    snapper = Snapshotter(sim, wal, capture, store, cadence=0.5)
    snapper.start()

    def run():
        for i in range(4):
            commit(wal, f"t{i}", x=i)
            yield from wal.flush()
            live["x"] = i
            snapper.mark_dirty()
            yield Timeout(0.6)
        yield Timeout(1.0)

    sim.run_process(run())
    snapper.stop()
    assert sim.metrics.counters()["snapshot.snap.installed"] >= 3
    assert store.peek_materialize().state == {"x": 3}


def test_idle_snapshotter_drains():
    """An idle loop parks on the dirty event — the sim's heap drains
    (no snapshot-every-cadence-forever polling)."""
    sim, wal, store = make_stack()
    snapper = Snapshotter(sim, wal, lambda: ({}, {}), store, cadence=0.5)
    snapper.start()
    sim.run()  # returns: nothing marked dirty, so nothing is scheduled
    assert sim.metrics.counters().get("snapshot.snap.installed", 0) == 0


def test_bad_cadence_rejected():
    sim, wal, store = make_stack()
    with pytest.raises(SimulationError):
        Snapshotter(sim, wal, lambda: ({}, {}), store, cadence=0.0)


# ----------------------------------------------------------------------
# recover(): snapshot + tail


def test_recover_without_snapshot_is_full_replay():
    sim, wal, store = make_stack()

    def run():
        commit(wal, "t1", a=1)
        commit(wal, "t2", b=2)
        yield from wal.flush()
        result = yield from recover(store, wal)
        return result

    result = sim.run_process(run())
    assert result.snapshot_lsn == 0
    assert result.replayed_records == 4
    assert result.state == {"a": 1, "b": 2}


def test_recover_replays_only_the_tail():
    sim, wal, store = make_stack()
    live = {}

    def capture():
        return dict(live), {}

    snapper = Snapshotter(sim, wal, capture, store, cadence=1.0)

    def run():
        for i in range(20):
            commit(wal, f"t{i}", k=i)
        yield from wal.flush()
        live["k"] = 19
        yield from snapper.take()
        commit(wal, "tail1", k=20, extra="x")
        commit(wal, "tail2", k=21)
        yield from wal.flush()
        result = yield from recover(store, wal)
        return result

    result = sim.run_process(run())
    assert result.snapshot_lsn == 40  # 20 txns × 2 records
    assert result.replayed_records == 5  # only the two tail txns
    assert result.replayed_txns == 2
    assert result.state == replay_all(wal)


def test_recover_matches_straight_line_replay_with_inflight_txn():
    """A txn split by the cut (WRITE before, COMMIT after) must survive:
    the snapshot meta carries the staged writes across."""
    sim, wal, store = make_stack()
    state, staged, applied = {}, {}, set()

    def apply_live(record):
        apply_txn_record(state, staged, applied, record.kind, record.txn_id, record.payload)

    def capture():
        return dict(state), {
            "staged": {t: dict(w) for t, w in staged.items()},
            "applied_txns": list(applied),
        }

    snapper = Snapshotter(sim, wal, capture, store, cadence=1.0)

    def run():
        apply_live(wal.append("WRITE", txn_id="t1", key="a", value=1))
        apply_live(wal.append("COMMIT", txn_id="t1"))
        apply_live(wal.append("WRITE", txn_id="t2", key="b", value=2))  # in flight
        yield from wal.flush()
        yield from snapper.take()
        apply_live(wal.append("COMMIT", txn_id="t2"))  # commits past the cut
        yield from wal.flush()
        result = yield from recover(store, wal)
        return result

    result = sim.run_process(run())
    assert result.state == {"a": 1, "b": 2}
    assert result.state == replay_all(wal)


def test_recover_twice_is_idempotent():
    sim, wal, store = make_stack()

    def run():
        commit(wal, "t1", a=1)
        yield from wal.flush()
        first = yield from recover(store, wal)
        second = yield from recover(store, wal)
        return first, second

    first, second = sim.run_process(run())
    assert first.state == second.state
    assert first.recovered_lsn == second.recovered_lsn


def test_recovery_io_scales_with_tail_not_log(monkeypatch):
    """The acceptance criterion in miniature: double the log, keep the
    tail, and recovery reads the same number of blocks."""
    costs = []
    for total_txns in (50, 100):
        sim, wal, store = make_stack()
        live = {}

        def run():
            for i in range(total_txns):
                commit(wal, f"t{i}", k=i)
            yield from wal.flush()
            live["k"] = total_txns - 1
            snapper = Snapshotter(sim, wal, lambda: (dict(live), {}), store, cadence=1.0)
            yield from snapper.take()
            commit(wal, "tail", k="last")
            yield from wal.flush()
            before = sim.metrics.counters().get("disk.log.blocks_read", 0)
            result = yield from recover(store, wal)
            after = sim.metrics.counters()["disk.log.blocks_read"]
            return result.replayed_records, after - before

        replayed, blocks = sim.run_process(run())
        assert replayed == 2
        costs.append(blocks)
    assert costs[0] == costs[1]  # log doubled, recovery IO did not


# ----------------------------------------------------------------------
# Chain reconstruction + prune


def test_chains_reconstructed_from_disk_blocks():
    sim, _wal, store = make_stack(max_chain=3)

    def run():
        for i in range(1, 6):
            yield from store.install({"k": i}, lsn=i)

    sim.run_process(run())
    chains = store.chains()
    # installs 1..3 form the first chain; 4 compacts, 5 chains onto it
    assert [[r.snapshot_id for r in chain] for chain in chains] == [
        [1, 2, 3], [4, 5]
    ]
    assert all(chain[0].base_id is None for chain in chains)


def test_prune_deletes_only_retired_chains():
    sim, _wal, store = make_stack(max_chain=2)

    def run():
        for i in range(1, 8):
            yield from store.install({"k": i, f"x{i}": i}, lsn=i)

    sim.run_process(run())
    assert len(store.chains()) > 2
    before = store.peek_materialize()

    deleted = sim.run_process(store.prune(keep_chains=2))
    assert deleted > 0
    assert len(store.chains()) == 2
    # The survivors still materialize to exactly what was covered.
    after = store.peek_materialize()
    assert after.lsn == before.lsn
    assert after.state == before.state


def test_prune_never_drops_a_covered_lsn():
    """The acceptance property: whatever the compaction cadence, a prune
    after every install leaves the covered LSN and the materialized
    state exactly where they were."""
    for max_chain in (1, 2, 3):
        for keep_chains in (1, 2):
            sim, _wal, store = make_stack(max_chain=max_chain)
            state = {}
            for i in range(1, 11):
                state[f"k{i % 4}"] = i
                state.pop(f"k{(i + 2) % 4}", None)

                def run(snapshot=dict(state), lsn=i):
                    yield from store.install(snapshot, lsn=lsn)
                    return (yield from store.prune(keep_chains=keep_chains))

                sim.run_process(run())
                snap = store.peek_materialize()
                assert snap is not None, (max_chain, keep_chains, i)
                assert snap.lsn == i, (max_chain, keep_chains, i)
                assert snap.state == state, (max_chain, keep_chains, i)
            assert len(store.chains()) <= keep_chains


def test_prune_with_nothing_to_drop_is_a_noop():
    sim, _wal, store = make_stack(max_chain=4)

    def run():
        yield from store.install({"a": 1}, lsn=1)
        yield from store.install({"a": 2}, lsn=2)
        return (yield from store.prune(keep_chains=2))

    assert sim.run_process(run()) == 0
    assert len(store.chains()) == 1


def test_prune_must_keep_a_chain():
    sim, _wal, store = make_stack()
    with pytest.raises(SimulationError):
        sim.run_process(store.prune(keep_chains=0))


def test_pruned_store_recovers_identically():
    """Recovery after a prune sees the same state as before it: the live
    chain plus the WAL tail is untouched by the garbage collection."""
    sim, wal, store = make_stack(max_chain=2)

    def run():
        for i in range(1, 6):
            commit(wal, f"t{i}", k=i)
            yield from wal.flush()
            yield from store.install({"k": i}, lsn=wal.durable_lsn)
        commit(wal, "tail", extra=99)
        yield from wal.flush()
        result_before = yield from recover(store, wal)
        yield from store.prune(keep_chains=1)
        result_after = yield from recover(store, wal)
        return result_before, result_after

    before, after = sim.run_process(run())
    assert after.state == before.state
    assert after.snapshot_lsn == before.snapshot_lsn
    assert after.replayed_records == before.replayed_records


# ----------------------------------------------------------------------
# Automatic retention (Snapshotter keep_chains)


def test_snapshotter_prunes_retired_chains_per_checkpoint():
    """With ``keep_chains`` set, every checkpoint garbage-collects the
    superseded chains as it lands — disk stays bounded with no operator
    in the loop, and the live chain always materializes intact."""
    sim, wal, store = make_stack(max_chain=2)
    live = {}
    snapper = Snapshotter(
        sim, wal, lambda: (dict(live), {}), store,
        cadence=1.0, keep_chains=1,
    )

    def run():
        for i in range(1, 9):
            live[f"k{i}"] = i
            commit(wal, f"t{i}", **{f"k{i}": i})
            yield from wal.flush()
            yield from snapper.take()

    sim.run_process(run())
    # 8 installs at max_chain=2 would have left 4 chains on disk; the
    # per-checkpoint prune kept only the newest.
    assert len(store.chains()) == 1
    assert sim.metrics.counters()["snapshot.snap.pruned_blocks"] > 0
    snap = store.peek_materialize()
    assert snap.state == live
    assert snap.lsn == wal.durable_lsn


def test_snapshotter_without_retention_keeps_every_chain():
    sim, wal, store = make_stack(max_chain=2)
    live = {}
    snapper = Snapshotter(
        sim, wal, lambda: (dict(live), {}), store, cadence=1.0,
    )

    def run():
        for i in range(1, 9):
            live[f"k{i}"] = i
            commit(wal, f"t{i}", **{f"k{i}": i})
            yield from wal.flush()
            yield from snapper.take()

    sim.run_process(run())
    assert len(store.chains()) > 1  # retired chains linger until pruned


def test_snapshotter_retention_keeps_recovery_identical():
    """The retention must be invisible to recovery: a retained-1 store
    and an unpruned store recover the same state from the same history."""
    results = []
    for keep_chains in (None, 1):
        sim, wal, store = make_stack(max_chain=2)
        live = {}
        snapper = Snapshotter(
            sim, wal, lambda: (dict(live), {}), store,
            cadence=1.0, keep_chains=keep_chains,
        )

        def run():
            for i in range(1, 7):
                live[f"k{i % 3}"] = i
                commit(wal, f"t{i}", **{f"k{i % 3}": i})
                yield from wal.flush()
                yield from snapper.take()
            commit(wal, "tail", extra=99)
            yield from wal.flush()
            return (yield from recover(store, wal))

        results.append(sim.run_process(run()))
    unpruned, retained = results
    assert retained.state == unpruned.state
    assert retained.snapshot_lsn == unpruned.snapshot_lsn
    assert retained.replayed_records == unpruned.replayed_records


def test_bad_retention_rejected():
    sim, wal, store = make_stack()
    with pytest.raises(SimulationError):
        Snapshotter(
            sim, wal, lambda: ({}, {}), store, cadence=1.0, keep_chains=0
        )
