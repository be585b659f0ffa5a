"""Property-based: snapshot + tail recovery equals straight-line replay
under arbitrary write/commit/checkpoint interleavings and crash points."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import (
    Disk,
    SnapshotStore,
    WriteAheadLog,
    apply_txn_record,
    recover,
)

# An op sequence interleaves transaction records with checkpoint points.
# Small txn-id range on purpose: commits land on txns with zero, one, or
# several staged writes, commits repeat (idempotence), and checkpoints
# fall between a txn's WRITE and its COMMIT (the split-cut case).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 5),
                  st.integers(0, 7), st.integers(0, 99)),
        st.tuples(st.just("commit"), st.integers(0, 5)),
        st.tuples(st.just("snap")),
    ),
    min_size=1,
    max_size=30,
)


def run_story(schedule, max_chain=3):
    """Drive a WAL + snapshot store through ``schedule``, then recover.

    Returns everything a property needs: the live (never-crashed) replica
    view, the recovery result, and the covered LSN after each install.
    """
    sim = Simulator(seed=3)
    wal = WriteAheadLog(sim, Disk(sim, name="log"), name="log")
    store = SnapshotStore(sim, Disk(sim, name="snapdisk"), name="snap")
    store.max_chain = max_chain
    live = {"state": {}, "staged": {}, "applied": set()}
    covered_lsns = []

    def story():
        for index, op in enumerate(schedule):
            if op[0] == "write":
                _, txn_idx, key, value = op
                txn = f"t{txn_idx}"
                wal.append("WRITE", txn_id=txn, key=key, value=value)
                yield from wal.flush()
                apply_txn_record(
                    live["state"], live["staged"], live["applied"],
                    "WRITE", txn, {"key": key, "value": value},
                )
            elif op[0] == "commit":
                txn = f"t{op[1]}"
                wal.append("COMMIT", txn_id=txn)
                yield from wal.flush()
                apply_txn_record(
                    live["state"], live["staged"], live["applied"],
                    "COMMIT", txn, {},
                )
            else:
                meta = {
                    "staged": {t: dict(w) for t, w in live["staged"].items()},
                    "applied_txns": sorted(live["applied"]),
                }
                yield from store.install(
                    dict(live["state"]), wal.durable_lsn, meta
                )
                covered_lsns.append(store.latest_lsn)
        result = yield from recover(store, wal)
        return result

    result = sim.run_process(story())
    return sim, wal, store, live, result, covered_lsns


def straight_line_replay(wal):
    """Replay the whole durable log from scratch — the oracle."""
    state, staged, applied = {}, {}, set()
    for record in wal.records_between(0, wal.durable_lsn):
        apply_txn_record(
            state, staged, applied, record.kind, record.txn_id,
            {"key": record.payload.get("key"),
             "value": record.payload.get("value")},
        )
    return state, staged, applied


@given(ops)
@settings(max_examples=200, deadline=None)
def test_recover_equals_straight_line_replay(schedule):
    """Whatever the checkpoint placement — including cuts that split a
    txn between its WRITE and COMMIT — snapshot + tail recovery lands on
    exactly the state a from-scratch replay of the full log produces."""
    _sim, wal, _store, live, result, _lsns = run_story(schedule)
    state, staged, applied = straight_line_replay(wal)
    assert result.state == state
    assert result.staged == staged
    assert result.applied_txns == applied
    # ... which is also the live replica's view: the crash lost nothing.
    assert result.state == live["state"]
    assert result.recovered_lsn == wal.durable_lsn


@given(ops)
@settings(max_examples=150, deadline=None)
def test_snapshot_lsns_are_monotone(schedule):
    """Each installed snapshot covers at least as much as its predecessor,
    and the chain's covered LSN never exceeds the durable log."""
    _sim, wal, store, _live, _result, covered_lsns = run_story(schedule)
    for earlier, later in zip(covered_lsns, covered_lsns[1:]):
        assert later >= earlier
    assert store.latest_lsn <= wal.durable_lsn
    if covered_lsns:
        assert store.latest_lsn == covered_lsns[-1]


@given(ops)
@settings(max_examples=150, deadline=None)
def test_recovery_is_idempotent(schedule):
    """Recovering twice returns the same answer: recovery reads durable
    state and mutates none of it."""
    sim, wal, store, _live, first, _lsns = run_story(schedule)
    second = sim.run_process(recover(store, wal))
    assert second.state == first.state
    assert second.staged == first.staged
    assert second.applied_txns == first.applied_txns
    assert second.recovered_lsn == first.recovered_lsn
    # Checkpointing the recovered state and recovering once more is also
    # a fixed point: recovery-of-recovery changes nothing.
    def again():
        yield from store.install(
            dict(first.state), first.recovered_lsn,
            {"staged": {t: dict(w) for t, w in first.staged.items()},
             "applied_txns": sorted(first.applied_txns)},
        )
        return (yield from recover(store, wal))
    third = sim.run_process(again())
    assert third.state == first.state
    assert third.staged == first.staged
    assert third.applied_txns == first.applied_txns
