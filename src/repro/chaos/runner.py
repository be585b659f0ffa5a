"""Seed sweeps, violation rates, and greedy schedule shrinking.

``ChaosRunner.sweep(seeds)`` samples a plan per seed, runs the scenario,
and aggregates violation rates through a :class:`MetricsRegistry`. When
a run violates an invariant, the runner shrinks the plan — greedily
dropping episodes and narrowing the survivors while the violation still
reproduces — and emits a minimal failing :class:`ChaosPlan` that replays
bit-for-bit from its seed (the runner verifies the replay itself).

CLI::

    python -m repro.chaos.runner --smoke       # CI gate: 5-seed sanity
    python -m repro.chaos.runner --scenario bank --seeds 20
    python -m repro.chaos.runner --scenario bank --policy amnesiac-restart
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import (
    Any, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.game_day import GameDayScenario
from repro.chaos.harness import ChaosReport
from repro.chaos.membership_divergence import MembershipDivergenceScenario
from repro.chaos.mixed_txn import MixedTxnScenario
from repro.chaos.rejoin import RejoinScenario
from repro.chaos.retrystorm import RetryStormScenario
from repro.chaos.ring_rebalance import RingRebalanceScenario
from repro.chaos.splitbrain import SplitBrainScenario
from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario
from repro.errors import SimulationError
from repro.parallel import parallel_map
from repro.sim.metrics import MetricsRegistry


@dataclass(frozen=True)
class FailingCase:
    """One seed's violation, before and after shrinking."""

    seed: int
    plan: ChaosPlan
    violation: Any  # the original first Violation
    minimal_plan: ChaosPlan
    minimal_violation: Any
    replay_matches: bool  # replaying (seed, minimal_plan) is bit-identical
    shrink_evals: int


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    reports: Tuple[ChaosReport, ...]
    failures: Tuple[FailingCase, ...]

    @property
    def runs(self) -> int:
        return len(self.reports)

    @property
    def violation_rate(self) -> float:
        return len(self.failures) / len(self.reports) if self.reports else 0.0


@dataclass(frozen=True)
class _SeedRun:
    """Picklable unit of sweep work: run one seed of a scenario.

    Carries the scenario plus the runner's plan/spec so a worker process
    samples exactly the plan the parent would have (``plan`` pins a fixed
    schedule; otherwise the spec samples one from the seed).
    """

    scenario: Any
    plan: Optional[ChaosPlan]
    spec: Optional[ChaosSpec]

    def __call__(self, seed: int) -> ChaosReport:
        plan = self.plan if self.plan is not None else self.spec.sample(seed)
        return self.scenario.run(seed, plan)


class ChaosRunner:
    """Sweeps seeds over a scenario; shrinks and verifies failures."""

    shrink_budget = 80  # scenario re-runs one shrink may spend
    min_window = 0.5    # narrowest episode a shrink will try, sim-seconds

    def __init__(
        self,
        scenario: Any,
        spec: Optional[ChaosSpec] = None,
        plan: Optional[ChaosPlan] = None,
    ) -> None:
        if spec is None and plan is None:
            spec = scenario.spec()
        self.scenario = scenario
        self.spec = spec
        self.plan = plan
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------

    def _account(self, report: ChaosReport) -> None:
        """Fold one report into the runner's metrics. Kept separate from
        the run so parallel sweeps can run remotely and account locally —
        the aggregate is identical either way."""
        self.metrics.inc("chaos.runs")
        self.metrics.observe("chaos.violations_per_run", len(report.violations))
        if report.failed:
            self.metrics.inc("chaos.failing_runs")
            for violation in report.violations:
                self.metrics.inc(f"chaos.violation.{violation.invariant}")

    def sweep(
        self,
        seeds: Iterable[int],
        shrink: bool = True,
        processes: Optional[int] = 1,
    ) -> SweepResult:
        """Run every seed; shrink the failures.

        ``processes`` fans the (independent, per-seed-deterministic) runs
        out over worker processes via :func:`repro.parallel.parallel_map`
        — 1 (the default) is serial, None auto-sizes to the CPU count.
        Reports, metrics, and failures are identical at any worker count;
        shrinking always happens in this process, where the runner's
        shrink budget and metrics live.
        """
        seeds = list(seeds)
        reports = parallel_map(
            _SeedRun(self.scenario, self.plan, self.spec), seeds, processes
        )
        failures: List[FailingCase] = []
        for report in reports:
            self._account(report)
            if report.failed and shrink:
                failures.append(self.shrink_case(report))
        return SweepResult(
            scenario=self.scenario.name,
            reports=tuple(reports),
            failures=tuple(failures),
        )

    # ------------------------------------------------------------------
    # Shrinking

    def shrink_case(self, report: ChaosReport) -> FailingCase:
        """Greedy minimization of a failing plan.

        Keeps the *first* violation's signature (invariant, detail) as
        the reproduction target; detection time may move as the schedule
        shrinks, the claimed bug may not.
        """
        target = report.violations[0].signature
        evals = 0

        def reproduces(candidate: ChaosPlan) -> bool:
            nonlocal evals
            if evals >= self.shrink_budget:
                return False
            evals += 1
            self.metrics.inc("chaos.shrink.evals")
            rerun = self.scenario.run(report.seed, candidate)
            return rerun.failed and rerun.violations[0].signature == target

        current = report.plan
        improved = True
        while improved and evals < self.shrink_budget:
            improved = False
            # Pass 1: drop whole episodes.
            index = 0
            while index < len(current.episodes):
                candidate = current.without(index)
                if reproduces(candidate):
                    current = candidate
                    improved = True
                else:
                    index += 1
            # Pass 2: narrow the survivors.
            for index, episode in enumerate(current.episodes):
                for smaller in episode.narrowed(self.min_window):
                    if reproduces(current.replace_episode(index, smaller)):
                        current = current.replace_episode(index, smaller)
                        improved = True
                        break

        minimal_report = self.scenario.run(report.seed, current)
        replay = self.scenario.run(report.seed, current)
        replay_matches = (
            minimal_report.failed
            and minimal_report.violations == replay.violations
            and minimal_report.counters == replay.counters
            and minimal_report.violations[0].signature == target
        )
        return FailingCase(
            seed=report.seed,
            plan=report.plan,
            violation=report.violations[0],
            minimal_plan=current,
            minimal_violation=minimal_report.violations[0]
            if minimal_report.failed else None,
            replay_matches=replay_matches,
            shrink_evals=evals,
        )


# ----------------------------------------------------------------------
# CLI


_SCENARIOS: dict = {
    "bank": BankClearingScenario,
    "cart": CartDynamoScenario,
    "game-day": GameDayScenario,
    "membership-divergence": MembershipDivergenceScenario,
    "mixed-txn": MixedTxnScenario,
    "rejoin": RejoinScenario,
    "retry-storm": RetryStormScenario,
    "ring-rebalance": RingRebalanceScenario,
    "split-brain": SplitBrainScenario,
}


def _build_scenario(name: str, policy: Optional[str]) -> Any:
    if name not in _SCENARIOS:
        raise SimulationError(f"unknown scenario {name!r} (have {sorted(_SCENARIOS)})")
    scenario = _SCENARIOS[name]()
    if policy:
        scenario.choose_policy(policy)
    return scenario


def _print_failure(case: FailingCase) -> None:
    print(f"  seed {case.seed}: {case.violation.invariant} — {case.violation.detail}")
    print(f"    shrunk {len(case.plan)} -> {len(case.minimal_plan)} episodes "
          f"({case.shrink_evals} evals), replay "
          f"{'bit-identical' if case.replay_matches else 'MISMATCH'}")
    for line in case.minimal_plan.describe().splitlines():
        print(f"      {line}")
    print("    plan json: " + json.dumps(case.minimal_plan.to_dict()))


def _sweep(
    scenario: Any, seeds: Sequence[int], spec_overrides: Tuple = ()
) -> SweepResult:
    runner = ChaosRunner(scenario, spec=scenario.spec(**dict(spec_overrides)))
    result = runner.sweep(seeds)
    print(f"[{scenario.name}] policy={getattr(scenario, 'policy', '?')} "
          f"runs={result.runs} failing={len(result.failures)} "
          f"violation_rate={result.violation_rate:.2f}")
    for case in result.failures:
        _print_failure(case)
    return result


def _report_entry(config: str, scenario: Any, result: SweepResult) -> dict:
    """``config`` tells apart sweeps that share a scenario and a policy
    (the two mixed-txn cuts have no ``policy`` at all)."""
    return {
        "config": config,
        "scenario": result.scenario,
        "policy": getattr(scenario, "policy", None),
        "runs": result.runs,
        "violation_rate": result.violation_rate,
        "failures": [
            {
                "seed": case.seed,
                "invariant": case.violation.invariant,
                "detail": case.violation.detail,
                "minimal_plan": case.minimal_plan.to_dict(),
                "replay_matches": case.replay_matches,
                "shrink_evals": case.shrink_evals,
            }
            for case in result.failures
        ],
    }


def _write_report(path: str, entries: List[dict]) -> None:
    """The invariant-violation report CI uploads as an artifact: every
    sweep's violation rate plus each failure's minimal replayable plan."""
    with open(path, "w") as handle:
        json.dump({"sweeps": entries}, handle, indent=2, sort_keys=True)
    print(f"invariant report -> {path}")


class SmokeRow(NamedTuple):
    """One sweep of the CI gate. ``what`` names the configuration in FAIL
    lines; ``caught`` rows must *fail* (a planted bug found, shrunk, and
    replayed bit-for-bit) where the others must stay clean."""

    label: str
    build: Callable[[], Any]
    what: str
    caught: bool = False
    max_seeds: Optional[int] = None
    spec_overrides: Tuple[Tuple[str, Any], ...] = ()


#: The short mixed-txn configuration: a mid-stream partition that still
#: leaves time to stabilize.
_SHORT_TXN = dict(horizon=16.0, partition_start=4.0, partition_end=9.0, drain=8.0)

SMOKE_ROWS: Tuple[SmokeRow, ...] = (
    SmokeRow("bank_correct", partial(BankClearingScenario, policy="correct"),
             "correct bank policy"),
    SmokeRow("cart_correct", partial(CartDynamoScenario, policy="correct"),
             "correct cart policy"),
    # Rolling cold restarts must lose no acked write under either rejoin
    # discipline — the snapshot only changes how much crosses the wire.
    SmokeRow("rejoin_snapshot", partial(RejoinScenario, policy="snapshot"),
             "snapshot rejoin policy"),
    SmokeRow("rejoin_nosnapshot", partial(RejoinScenario, policy="no-snapshot"),
             "no-snapshot rejoin policy"),
    # The elastic ring reshapes mid-traffic (two joins + a decommission
    # under message chaos) and must lose no acked write and re-converge.
    SmokeRow("ring_rebalance", RingRebalanceScenario, "elastic ring_rebalance"),
    # Gossiped membership views diverge under partitions and flapping
    # links, but must reconverge after heal, never let a refuted
    # suspicion stick, and lose no acked write while opinions disagree.
    SmokeRow("membership_divergence", MembershipDivergenceScenario,
             "membership_divergence"),
    # A retry storm is a goodput catastrophe, not a correctness bug:
    # the invariants must hold under BOTH client disciplines (E13
    # measures the goodput gap separately).
    SmokeRow("retrystorm_resilient", partial(RetryStormScenario, policy="resilient"),
             "resilient retry-storm policy"),
    SmokeRow("retrystorm_naive", partial(RetryStormScenario, policy="naive"),
             "naive retry-storm policy"),
    # Mixed-consistency transactions: a mid-stream partition (short
    # config) must leave every wrong guess paired with exactly one
    # executed apology, the escrow conserved, and strong acks unmoved —
    # both when the cut deposes the leader and when it strands a follower.
    SmokeRow("mixed_txn_leader",
             partial(MixedTxnScenario, cut="leader", **_SHORT_TXN),
             "mixed-txn (leader cut)"),
    SmokeRow("mixed_txn_minority",
             partial(MixedTxnScenario, cut="minority", **_SHORT_TXN),
             "mixed-txn (minority cut)"),
    # Fenced automatic takeover survives the split-brain ambiguity...
    SmokeRow("splitbrain_fenced", partial(SplitBrainScenario, policy="fenced"),
             "fenced split-brain policy"),
    # ...and the unfenced ablation must be caught losing updates, with
    # the shrunk plan replaying exactly — like the amnesiac bank below.
    SmokeRow("splitbrain_unfenced", partial(SplitBrainScenario, policy="unfenced"),
             "unfenced split-brain policy", caught=True),
    # The geo game day: 100+ processes across three DCs, WAN cut + retry
    # storm + slow disk at once. Fenced + phi-accrual must come out with
    # zero violations. Two seeds — each run is a full multi-DC day.
    SmokeRow("game_day", partial(GameDayScenario, policy="fenced", detector="phi"),
             "fenced+phi game day", max_seeds=2),
    # The amnesia only fires on a restart, so every plan gets a crash.
    SmokeRow("bank_amnesiac", partial(BankClearingScenario, policy="amnesiac-restart"),
             "amnesiac-restart policy", caught=True,
             spec_overrides=(("min_crashes", 1),)),
)


def smoke(seeds: Sequence[int], report_path: Optional[str] = None) -> int:
    """The CI gate: correct policies stay clean; a broken policy is
    found, shrunk, and replays exactly."""
    failed = False
    entries: List[dict] = []
    for row in SMOKE_ROWS:
        scenario = row.build()
        result = _sweep(scenario, seeds[: row.max_seeds], row.spec_overrides)
        entries.append(_report_entry(row.label, scenario, result))
        complaints = []
        if row.caught:
            if not result.failures:
                complaints.append(f"{row.what} was not caught")
            if any(not case.replay_matches for case in result.failures):
                complaints.append(
                    f"a minimal plan of the {row.what} did not replay bit-for-bit"
                )
        elif result.failures:
            complaints.append(f"{row.what} violated an invariant")
        for complaint in complaints:
            print(f"FAIL: {complaint}")
            failed = True

    if report_path is not None:
        _write_report(report_path, entries)
    print("chaos smoke: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


def _seed_count(text: str) -> int:
    count = int(text)
    if count < 1:
        # A sweep over no seeds prints violation_rate=0.00 and exits 0.
        raise argparse.ArgumentTypeError("a sweep needs at least 1 seed")
    return count


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.runner",
        description="Seeded chaos sweeps with invariant checking and shrinking.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI smoke sweep (correct + broken policies)")
    parser.add_argument("--scenario", default="bank", choices=sorted(_SCENARIOS))
    parser.add_argument("--policy", default=None,
                        help="scenario policy (e.g. correct, amnesiac-restart, lww)")
    parser.add_argument("--seeds", type=_seed_count, default=5,
                        help="number of seeds to sweep (0..N-1), at least 1")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write a JSON invariant-violation report "
                             "(minimal replayable plans included)")
    args = parser.parse_args(argv)

    seeds = list(range(args.seeds))
    if args.smoke:
        return smoke(seeds, report_path=args.report)

    scenario = _build_scenario(args.scenario, args.policy)
    result = _sweep(scenario, seeds)
    if args.report is not None:
        _write_report(
            args.report, [_report_entry(args.scenario, scenario, result)]
        )
    return 1 if result.failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
