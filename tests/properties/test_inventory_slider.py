"""Property-based: the over-booking slider is monotone — more θ never
books less, of unit-quantity requests — and duplicates collapse under any
sync schedule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import InventorySystem

def scripts_of(quantities):
    return st.lists(
        st.one_of(
            st.tuples(st.just("req"), st.sampled_from(["east", "west"]), quantities),
            st.tuples(st.just("sync"), st.just("east"), st.just(0)),
        ),
        max_size=40,
    )


scripts = scripts_of(st.integers(1, 3))


def run_script(theta, script):
    inv = InventorySystem(20.0, ["east", "west"], theta=theta)
    for index, (kind, where, quantity) in enumerate(script):
        if kind == "sync":
            inv.sync("east", "west")
        else:
            inv.request(where, f"r{index}", quantity=float(quantity))
    inv.sync_all()
    return inv


@given(scripts_of(st.just(1)), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_slider_monotone_in_theta(script, theta_a, theta_b):
    """Unit quantities only: with mixed ones admission is a greedy
    knapsack, and a larger limit can take a big request early that shuts
    out more later (the two tests below)."""
    low, high = sorted((theta_a, theta_b))
    inv_low = run_script(low, script)
    inv_high = run_script(high, script)
    assert inv_low.granted <= inv_high.granted
    assert inv_low.total_reserved() <= inv_high.total_reserved()
    assert inv_low.oversold() <= inv_high.oversold() + 1e-9


def _requests(where, quantity, times):
    return [("req", where, quantity)] * times


def test_mixed_quantities_can_grant_fewer_requests_at_higher_theta():
    script = (_requests("east", 1, 4) + _requests("west", 3, 4)
              + [("sync", "east", 0)] + _requests("east", 1, 6))
    cautious, bold = run_script(0.0, script), run_script(1.0, script)
    assert (cautious.granted, bold.granted) == (13, 12)
    assert (cautious.total_reserved(), bold.total_reserved()) == (19.0, 20.0)


def test_mixed_quantities_can_reserve_fewer_units_at_higher_theta():
    script = (_requests("east", 2, 6) + [("sync", "east", 0)]
              + _requests("west", 3, 3))
    assert run_script(0.0, script).total_reserved() == 19.0
    assert run_script(0.5, script).total_reserved() == 18.0


@given(scripts)
@settings(max_examples=60)
def test_total_reserved_never_exceeds_granted_quantity(script):
    inv = run_script(1.0, script)
    granted_quantity = sum(
        op.args["quantity"] for op in inv.global_ops()
    )
    assert inv.total_reserved() == granted_quantity


@given(scripts)
@settings(max_examples=60)
def test_duplicate_uniquifier_counts_once(script):
    """Replay the same script with every request id forced to collide:
    at most one reservation survives globally."""
    inv = InventorySystem(20.0, ["east", "west"], theta=1.0)
    for kind, where, quantity in script:
        if kind == "sync":
            inv.sync("east", "west")
        else:
            inv.request(where, "the-one-order", quantity=float(quantity))
    inv.sync_all()
    assert len(inv.global_ops()) <= 1
