"""Property-based: OpSet merge is a join-semilattice (ACID 2.0 knowledge),
and commutative op spaces fold order-independently."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OpSet, Operation, TypeRegistry, check_acid2


def _apply_add(state, op):
    new = dict(state)
    key = op.args["key"]
    new[key] = new.get(key, 0) + op.args["amount"]
    return new


def make_registry():
    registry = TypeRegistry(initial_state=dict)
    registry.register("ADD", _apply_add)
    return registry


operations = st.builds(
    Operation,
    op_type=st.just("ADD"),
    args=st.fixed_dictionaries(
        {"key": st.sampled_from(["a", "b", "c"]),
         "amount": st.integers(min_value=-50, max_value=50)}
    ),
    uniquifier=st.text(alphabet="xyz0123456789", min_size=1, max_size=6),
    ingress_time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
op_lists = st.lists(operations, max_size=12)
# The uniquifier contract (§5.4): one uniquifier, one piece of work. Tests
# that compare folded *state* need payload-consistent identities, so they
# draw lists unique by uniquifier; knowledge-only tests tolerate collisions.
distinct_op_lists = st.lists(operations, unique_by=lambda op: op.uniquifier, max_size=12)


@given(op_lists, op_lists)
def test_union_commutative(ops_a, ops_b):
    a, b = OpSet(ops_a), OpSet(ops_b)
    assert a.union(b).uniquifiers() == b.union(a).uniquifiers()


@given(op_lists, op_lists, op_lists)
@settings(max_examples=50)
def test_union_associative(ops_a, ops_b, ops_c):
    a, b, c = OpSet(ops_a), OpSet(ops_b), OpSet(ops_c)
    left = a.union(b).union(c)
    right = a.union(b.union(c))
    assert left.uniquifiers() == right.uniquifiers()


@given(op_lists)
def test_union_idempotent(ops):
    a = OpSet(ops)
    assert a.union(a).uniquifiers() == a.uniquifiers()


@given(op_lists, op_lists)
def test_merge_grows_monotonically(ops_a, ops_b):
    a, b = OpSet(ops_a), OpSet(ops_b)
    before = a.uniquifiers()
    a.merge(b)
    assert before <= a.uniquifiers()


@given(distinct_op_lists)
@settings(max_examples=50)
def test_same_knowledge_same_canonical_state(ops):
    registry = make_registry()
    forward = OpSet(ops)
    backward = OpSet(reversed(ops))
    assert forward.uniquifiers() == backward.uniquifiers()
    assert forward.canonical_fold(registry) == backward.canonical_fold(registry)


@given(distinct_op_lists)
@settings(max_examples=50)
def test_commutative_space_arrival_fold_matches_canonical(ops):
    """For a commutative op space, arrival order is irrelevant even
    without canonicalization."""
    registry = make_registry()
    opset = OpSet(ops)
    assert opset.fold(registry) == opset.canonical_fold(registry)


@given(st.lists(operations, unique_by=lambda op: op.uniquifier, max_size=5))
@settings(max_examples=40)
def test_check_acid2_passes_for_counter_space(ops):
    registry = make_registry()
    report = check_acid2(registry, ops)
    assert report.ok, report.failures


@given(op_lists, op_lists)
@settings(max_examples=50)
def test_missing_from_partitions_the_union(ops_a, ops_b):
    a, b = OpSet(ops_a), OpSet(ops_b)
    missing = {op.uniquifier for op in a.missing_from(b)}
    assert missing == a.uniquifiers() - b.uniquifiers()
