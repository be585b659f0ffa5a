"""Property-based: the over-booking slider is monotone — more θ never
books less — and duplicates collapse under any sync schedule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resources import InventorySystem

scripts = st.lists(
    st.one_of(
        st.tuples(st.just("req"), st.sampled_from(["east", "west"])),
        st.tuples(st.just("sync"), st.just("east")),
    ),
    max_size=40,
)


def run_script(theta, script):
    inv = InventorySystem(20.0, ["east", "west"], theta=theta)
    for index, (kind, where) in enumerate(script):
        if kind == "sync":
            inv.sync("east", "west")
        else:
            inv.request(where, f"r{index}")
    inv.sync_all()
    return inv


@given(scripts, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_slider_monotone_in_theta(script, theta_a, theta_b):
    low, high = sorted((theta_a, theta_b))
    inv_low = run_script(low, script)
    inv_high = run_script(high, script)
    assert inv_low.granted <= inv_high.granted
    assert inv_low.total_reserved() <= inv_high.total_reserved()
    assert inv_low.oversold() <= inv_high.oversold() + 1e-9


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
    for kind, where in script:
        if kind == "sync":
            inv.sync("east", "west")
        else:
            inv.request(where, "the-one-order")
    inv.sync_all()
    assert len(inv.global_ops()) <= 1
