"""Property-based: account folds are order-independent; statements put
every entry on exactly one statement under arbitrary close schedules;
θ=0 inventory never oversells under arbitrary demand/sync interleavings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bank import ReplicatedBank, StatementBook, build_account_registry
from repro.bank.account import balance_of
from repro.core import Operation
from repro.resources import InventorySystem

account_ops = st.builds(
    lambda kind, amount, uniq: Operation(kind, {"amount": amount}, uniquifier=uniq),
    kind=st.sampled_from(["DEPOSIT", "CLEAR_CHECK", "FEE"]),
    amount=st.floats(min_value=0.01, max_value=500.0, allow_nan=False),
    uniq=st.uuids().map(str),
)


@given(st.lists(account_ops, max_size=10), st.randoms())
@settings(max_examples=60)
def test_account_fold_order_independent(ops, rng):
    registry = build_account_registry()

    def fold(sequence):
        state = registry.initial_state()
        for op in sequence:
            state = registry.apply(state, op)
        return state

    shuffled = list(ops)
    rng.shuffle(shuffled)
    forward = fold(ops)
    permuted = fold(shuffled)
    assert forward["entries"] == permuted["entries"]
    assert abs(forward["balance"] - permuted["balance"]) < 1e-6


@given(
    st.lists(
        st.tuples(st.sampled_from(["branch0", "branch1"]),
                  st.floats(min_value=1.0, max_value=100.0, allow_nan=False)),
        max_size=12,
    ),
    st.sets(st.integers(min_value=0, max_value=11)),
)
@settings(max_examples=40)
def test_statements_exactly_once_under_random_closes(events, close_points):
    """Clear checks at random branches, close a statement at random
    points, reconcile at the end, close once more: every entry appears on
    exactly one statement and the chain balances."""
    from repro.bank import Check

    bank = ReplicatedBank(initial_deposit=10_000.0)
    book = StatementBook(bank.replica("branch0"))
    for index, (branch, amount) in enumerate(events):
        bank.clear_check(branch, Check("fnb", "acct1", index + 1, "p", amount))
        if index in close_points:
            book.close(f"m{index}")
    bank.reconcile()
    book.close("final")
    book.check_exactly_once()
    assert book.chaining_consistent()


@given(st.lists(st.sampled_from(["east", "west", "SYNC"]), max_size=40))
@settings(max_examples=60)
def test_overprovisioning_never_oversells(script):
    """θ=0: under any interleaving of requests and syncs, the globally
    distinct reservations never exceed capacity."""
    inv = InventorySystem(20.0, ["east", "west"], theta=0.0)
    for index, where in enumerate(script):
        if where == "SYNC":
            inv.sync("east", "west")
        else:
            inv.request(where, f"r{index}")
        assert inv.oversold() == 0.0
