"""Business rules, enforcement modes, and risk policies."""

import pytest

from repro.core import (
    BusinessRule,
    Enforcement,
    Operation,
    RuleEngine,
    ThresholdRiskPolicy,
)
from repro.errors import RuleViolation
from tests.core.conftest import add_op


def no_negative(state, _op):
    if state.get("total", 0) < 0:
        return "negative total"
    return None


def test_submit_check_raises_on_violation():
    engine = RuleEngine([BusinessRule("nonneg", no_negative)])
    with pytest.raises(RuleViolation):
        engine.check_submit({"total": -5}, add_op(-5))


def test_submit_check_passes_clean_state():
    engine = RuleEngine([BusinessRule("nonneg", no_negative)])
    engine.check_submit({"total": 5}, add_op(5))


def test_integrated_check_returns_violations():
    engine = RuleEngine([BusinessRule("nonneg", no_negative)])
    violations = engine.check_integrated({"total": -1}, add_op(-1))
    assert len(violations) == 1
    assert violations[0].rule == "nonneg"


def test_applies_to_filter():
    rule = BusinessRule(
        "nonneg", no_negative, applies_to=frozenset({"WITHDRAW"})
    )
    engine = RuleEngine([rule])
    engine.check_submit({"total": -5}, add_op(-5))  # ADD not covered
    with pytest.raises(RuleViolation):
        engine.check_submit({"total": -5}, Operation("WITHDRAW", {"amount": 5}))


def test_threshold_policy_is_the_10k_check():
    policy = ThresholdRiskPolicy(threshold=10_000)
    small = Operation("CLEAR_CHECK", {"amount": 100})
    big = Operation("CLEAR_CHECK", {"amount": 10_000})
    assert policy.enforcement_for(small) is Enforcement.LOCAL
    assert policy.enforcement_for(big) is Enforcement.COORDINATED
    assert policy.requires_coordination(big)
    assert not policy.requires_coordination(small)


def test_threshold_policy_missing_amount_is_riskless():
    policy = ThresholdRiskPolicy(threshold=10)
    assert not policy.requires_coordination(Operation("PING", {}))
