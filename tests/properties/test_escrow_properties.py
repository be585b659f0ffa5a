"""Property-based: escrow never breaches its floor under any schedule of
reserves, commits, and aborts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EscrowAccount
from repro.sim import Simulator

actions = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "commit", "abort"]),
        st.integers(min_value=0, max_value=5),  # txn slot
        st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    ),
    max_size=30,
)


def reserve_if_it_fits(account, txn, delta):
    """Grant ``delta`` to ``txn`` if the worst case admits it now, else
    decline: a schedule never leaves a reserve waiting."""
    fits = delta >= 0 or account.worst_case_low + delta >= account.minimum
    if fits:
        for _wait in account.reserve(txn, delta):
            raise AssertionError(f"a reserve that fits waited: {txn} {delta}")
    return fits


@given(actions)
@settings(max_examples=80)
def test_bounds_never_breached(schedule):
    """Drive an account with arbitrary reserve/commit/abort sequences:
    the committed value must stay at or above 0 at every step, and so
    must the worst case."""
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    live = set()
    for kind, slot, delta in schedule:
        txn = f"t{slot}"
        if kind == "reserve":
            if reserve_if_it_fits(account, txn, delta):
                live.add(txn)
        elif kind == "commit" and txn in live:
            account.commit(txn)
            live.discard(txn)
        elif kind == "abort" and txn in live:
            account.abort(txn)
            live.discard(txn)
        assert account.value >= 0.0
        assert account.worst_case_low >= 0.0 - 1e-9


@given(actions)
@settings(max_examples=60)
def test_abort_all_restores_initial(schedule):
    """If every reservation is aborted, the value is untouched —
    operation logging means rollback is exact."""
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    live = set()
    for kind, slot, delta in schedule:
        if kind == "reserve" and reserve_if_it_fits(account, f"t{slot}", delta):
            live.add(f"t{slot}")
    for txn in live:
        account.abort(txn)
    assert account.value == 100.0
    assert account.pending_txns == 0


@given(actions)
@settings(max_examples=60)
def test_value_equals_initial_plus_committed_deltas(schedule):
    sim = Simulator()
    account = EscrowAccount(sim, initial=100.0)
    pending = {}
    committed_sum = 0.0
    for kind, slot, delta in schedule:
        txn = f"t{slot}"
        if kind == "reserve":
            if reserve_if_it_fits(account, txn, delta):
                pending.setdefault(txn, []).append(delta)
        elif kind == "commit" and txn in pending:
            account.commit(txn)
            committed_sum += sum(pending.pop(txn))
        elif kind == "abort" and txn in pending:
            account.abort(txn)
            pending.pop(txn)
    assert abs(account.value - (100.0 + committed_sum)) < 1e-9
