"""Unified chaos engine: declarative fault plans, invariant monitoring,
seed sweeps with shrinking — deterministic-simulation testing for the
paper's fault-tolerant applications."""

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import (
    Check,
    InvariantMonitor,
    Violation,
    balance_matches_entries,
    escrow_non_negative,
    no_duplicate_debits,
    no_lost_cart_adds,
    no_money_created,
    replicas_converge,
)
from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    CrashEpisode,
    DiskFaultEpisode,
    Episode,
    LinkFaultEpisode,
    PartitionEpisode,
    WanCutEpisode,
)
from repro.chaos.game_day import GameDayScenario, GameDaySpec
from repro.chaos.harness import ChaosReport
from repro.chaos.mixed_txn import MixedTxnScenario
from repro.chaos.rejoin import RejoinScenario
from repro.chaos.retrystorm import RetryStormScenario
from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario

# Imported lazily so `python -m repro.chaos.runner` does not import the
# runner module twice (once via the package, once via runpy).
_RUNNER_EXPORTS = ("ChaosRunner", "FailingCase", "SweepResult")


def __getattr__(name):
    if name in _RUNNER_EXPORTS:
        from repro.chaos import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BankClearingScenario",
    "CartDynamoScenario",
    "ChaosEngine",
    "ChaosPlan",
    "ChaosReport",
    "ChaosRunner",
    "ChaosSpec",
    "ChaosTargets",
    "Check",
    "CrashEpisode",
    "DiskFaultEpisode",
    "Episode",
    "FailingCase",
    "GameDayScenario",
    "GameDaySpec",
    "InvariantMonitor",
    "LinkFaultEpisode",
    "MixedTxnScenario",
    "PartitionEpisode",
    "RejoinScenario",
    "RetryStormScenario",
    "SweepResult",
    "Violation",
    "WanCutEpisode",
    "balance_matches_entries",
    "escrow_non_negative",
    "no_duplicate_debits",
    "no_lost_cart_adds",
    "no_money_created",
    "replicas_converge",
]
