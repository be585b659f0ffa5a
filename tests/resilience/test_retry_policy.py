"""RetryPolicy: validation, backoff math, and seed-deterministic jitter."""

import pytest

from repro.errors import SimulationError
from repro.resilience import RetryPolicy
from repro.sim import Simulator


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"timeout": 0.0},
        {"backoff": "quadratic"},
        {"base_delay": -1.0},
        {"multiplier": 0.5},
        {"jitter": 1.5},
        {"deadline": 0.0},
    ],
)
def test_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(SimulationError):
        RetryPolicy(**kwargs)


def test_first_attempt_never_waits():
    policy = RetryPolicy(backoff="exponential", base_delay=1.0)
    assert policy.backoff_delay(0) == 0.0


def test_zero_base_delay_means_no_backoff():
    policy = RetryPolicy(max_attempts=5)
    assert policy.schedule() == [0.0, 0.0, 0.0, 0.0]


def test_fixed_backoff_is_constant():
    policy = RetryPolicy(max_attempts=4, backoff="fixed", base_delay=0.5)
    assert policy.schedule() == [0.5, 0.5, 0.5]


def test_exponential_backoff_ramps_and_caps():
    policy = RetryPolicy(
        max_attempts=6, backoff="exponential",
        base_delay=1.0, multiplier=2.0, max_delay=5.0,
    )
    assert policy.schedule() == [1.0, 2.0, 4.0, 5.0, 5.0]


def test_jitter_needs_an_rng():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    with pytest.raises(SimulationError):
        policy.backoff_delay(1)


def test_jitter_stays_in_band_and_is_seed_deterministic():
    policy = RetryPolicy(
        max_attempts=8, backoff="exponential",
        base_delay=1.0, multiplier=2.0, max_delay=8.0, jitter=0.3,
    )
    plain = RetryPolicy(
        max_attempts=8, backoff="exponential",
        base_delay=1.0, multiplier=2.0, max_delay=8.0,
    )
    first = policy.schedule(Simulator(seed=11).rng.stream("resilience.retry"))
    second = policy.schedule(Simulator(seed=11).rng.stream("resilience.retry"))
    other = policy.schedule(Simulator(seed=12).rng.stream("resilience.retry"))
    assert first == second           # same master seed, bit-identical schedule
    assert first != other            # the jitter actually jitters
    for jittered, nominal in zip(first, plain.schedule()):
        assert 0.7 * nominal <= jittered <= 1.3 * nominal


def test_unjittered_policy_draws_no_randomness():
    rng = Simulator(seed=3).rng.stream("resilience.retry")
    state_before = rng.getstate()
    RetryPolicy(max_attempts=5, base_delay=0.5).schedule(rng)
    assert rng.getstate() == state_before
