"""Mixed-txn scenario: the three apology invariants under a scripted
mid-stream partition, for both cuts, plus bit-identical determinism.

The scenario is the executable form of the ISSUE's acceptance bar: every
reordered guess pairs with exactly one executed apology, the escrow never
over-grants after stabilization, and a strong ack is never reordered —
whether the cut deposes the leader (takeover + fence) or strands a
follower (quiet divergence)."""

import pytest

from repro.chaos.mixed_txn import MixedTxnScenario
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import ChaosRunner
from repro.errors import SimulationError

# The smoke-gate shape: short horizon, partition mid-stream, enough
# drain for every ticket to stabilize.
SHORT = dict(horizon=16.0, partition_start=4.0, partition_end=9.0, drain=8.0)


def run_mixed(cut, seed, plan=None, **kwargs):
    params = dict(SHORT)
    params.update(kwargs)
    scenario = MixedTxnScenario(cut=cut, **params)
    report = scenario.run(seed, plan if plan is not None else ChaosPlan())
    return scenario, report


# ----------------------------------------------------------------------
# The two cuts stay invariant-clean — and actually exercise the story


def test_leader_cut_is_clean_and_mints_apologies():
    _scenario, report = run_mixed("leader", seed=0)
    assert report.violations == ()
    counters = report.counters
    # The deposed leader kept guessing on the wrong side of the cut:
    # reorders happened, and every one of them was apologized for.
    assert counters["txn.reordered"] > 0
    assert counters["txn.apologies"] == counters["txn.reordered"]
    # The cut convicted the leader — a second regime took over.
    assert counters["txn.regimes"] >= 2


def test_minority_cut_is_clean_without_a_takeover():
    _scenario, report = run_mixed("minority", seed=0)
    assert report.violations == ()
    counters = report.counters
    # The stranded follower's guesses met the majority's order at heal.
    assert counters["txn.reordered"] > 0
    assert counters["txn.apologies"] == counters["txn.reordered"]
    # The leader kept its quorum and the monitor: one regime, no fence.
    assert counters["txn.regimes"] == 1


def test_sweep_stays_clean_across_seeds():
    for cut in ("leader", "minority"):
        scenario = MixedTxnScenario(cut=cut, **SHORT)
        result = ChaosRunner(scenario).sweep(range(3))
        assert not result.failures, (
            f"{cut} cut: {[c.violation for c in result.failures]}"
        )


def test_every_ticket_stabilizes_and_weak_acks_flow():
    _scenario, report = run_mixed("leader", seed=1)
    # escrow-conservation fails any run that leaves a ticket unstabilized.
    assert report.violations == ()
    counters = report.counters
    assert counters["txn.stabilized"] == (
        counters["txn.guesses"] + counters["txn.strong_submitted"]
    )
    # Weak ops acked immediately even while the fabric was cut.
    assert report.counters["chaos.mixed_txn.weak_acks"] > 0
    assert report.counters["txn.guesses"] > 0


# ----------------------------------------------------------------------
# Determinism: same seed, same story, bit for bit


def test_seed_identical_runs_are_bit_identical():
    _s1, one = run_mixed("leader", seed=3)
    _s2, two = run_mixed("leader", seed=3)
    assert one.counters == two.counters
    assert one.end_time == two.end_time
    assert one.violations == two.violations


def test_different_seeds_tell_different_stories():
    _s1, one = run_mixed("leader", seed=0)
    _s2, two = run_mixed("leader", seed=1)
    assert one.counters != two.counters


# ----------------------------------------------------------------------
# Config validation


def test_unknown_cut_is_rejected():
    with pytest.raises(SimulationError):
        MixedTxnScenario(cut="diagonal")
