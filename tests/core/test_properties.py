"""ACID 2.0 checker: commutative families pass; WRITE-like ones fail."""

from repro.core import check_acid2
from tests.core.conftest import add_op, set_op


def test_counter_ops_are_acid2(counter_registry):
    ops = [add_op(i, uniquifier=f"u{i}", ingress_time=float(i)) for i in range(4)]
    report = check_acid2(counter_registry, ops)
    assert report.ok
    assert report.failures == []


def test_register_sets_are_not_commutative(register_registry):
    ops = [
        set_op("a", uniquifier="u1", ingress_time=1.0),
        set_op("b", uniquifier="u2", ingress_time=2.0),
    ]
    report = check_acid2(register_registry, ops)
    assert not report.commutative
    assert not report.ok
    assert any("diverges" in failure for failure in report.failures)


def test_empty_sample_trivially_ok(counter_registry):
    assert check_acid2(counter_registry, []).ok


def test_single_op_ok(counter_registry):
    assert check_acid2(counter_registry, [add_op(5)]).ok


def test_idempotence_via_uniquifier_dedup(counter_registry):
    """ADD is not idempotent raw — applying twice doubles — but the
    uniquifier layer collapses duplicates, which is the paper's point."""
    ops = [add_op(5, uniquifier="u1", ingress_time=1.0)]
    report = check_acid2(counter_registry, ops)
    assert report.idempotent


def test_permutation_bound_respected(counter_registry):
    ops = [add_op(i, uniquifier=f"u{i}") for i in range(6)]
    # 6! = 720 permutations; bounded run must still terminate and pass.
    report = check_acid2(counter_registry, ops)
    assert report.ok
