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

Both fan their runs out over every CPU through :mod:`repro.parallel`
(in this process while it is profiled, traced or under tracemalloc) and
print the same bytes either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
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


def _run_seed(unit: Tuple[Any, int]) -> ChaosReport:
    """One unit of sweep work, picklable for a worker process:
    ``(runner, seed)``, the runner anything with ``_run(seed)``."""
    runner, seed = unit
    return runner._run(seed)


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

    def __getstate__(self) -> Dict[str, Any]:
        """A runner crosses to a worker process as what a run needs — the
        scenario's configuration and the spec or fixed plan — never its
        metrics, which only this process accounts into."""
        return {"scenario": self.scenario, "spec": self.spec, "plan": self.plan}

    # ------------------------------------------------------------------

    def _run(self, seed: int) -> ChaosReport:
        """One seed: ``plan`` pins a fixed schedule; otherwise the spec
        samples one from the seed (in whichever process runs it)."""
        plan = self.plan if self.plan is not None else self.spec.sample(seed)
        return self.scenario.run(seed, plan)

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
        reports: Optional[Iterable[ChaosReport]] = None,
    ) -> SweepResult:
        """Run every seed; shrink the failures.

        ``processes`` fans the (independent, per-seed-deterministic) runs
        out over worker processes via :func:`repro.parallel.parallel_map`
        — 1 (the default) is serial, None auto-sizes to the CPU count.
        ``reports``, when given, are the seeds' reports in seed order,
        already started elsewhere (:func:`smoke` runs every row through
        one pool). Reports, metrics, and failures are identical at any
        worker count; each report is accounted, and shrunk if it failed,
        in this process as it arrives, where the runner's shrink budget
        and metrics live.
        """
        if reports is not None:
            return self._fold(reports, shrink)
        units = [(self, seed) for seed in seeds]
        with closing(parallel_map(_run_seed, units, processes)) as started:
            return self._fold(started, shrink)

    def _fold(self, reports: Iterable[ChaosReport], shrink: bool) -> SweepResult:
        kept: List[ChaosReport] = []
        failures: List[FailingCase] = []
        for report in reports:
            kept.append(report)
            self._account(report)
            if report.failed and shrink:
                failures.append(self.shrink_case(report))
        return SweepResult(
            scenario=self.scenario.name,
            reports=tuple(kept),
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

        def reproduces(candidate: ChaosPlan) -> Optional[ChaosReport]:
            """The candidate's report if it still fails with the target."""
            nonlocal evals
            if evals >= self.shrink_budget:
                return None
            evals += 1
            self.metrics.inc("chaos.shrink.evals")
            rerun = self.scenario.run(report.seed, candidate)
            if rerun.failed and rerun.violations[0].signature == target:
                return rerun
            return None

        # The plan shrunk so far, with the report of the run that showed
        # it still fails — no plan is run twice to learn the same thing.
        current, minimal_report = report.plan, report
        improved = True
        while improved and evals < self.shrink_budget:
            improved = False
            # Pass 1: drop whole episodes.
            index = 0
            while index < len(current.episodes):
                candidate = current.without(index)
                rerun = reproduces(candidate)
                if rerun is not None:
                    current, minimal_report = candidate, rerun
                    improved = True
                else:
                    index += 1
            # Pass 2: narrow the survivors.
            for index, episode in enumerate(current.episodes):
                for smaller in episode.narrowed(self.min_window):
                    candidate = current.replace_episode(index, smaller)
                    rerun = reproduces(candidate)
                    if rerun is not None:
                        current, minimal_report = candidate, rerun
                        improved = True
                        break

        # An independent run of the final plan must match bit for bit.
        replay = self.scenario.run(report.seed, current)
        return FailingCase(
            seed=report.seed,
            plan=report.plan,
            violation=report.violations[0],
            minimal_plan=current,
            minimal_violation=minimal_report.violations[0],
            replay_matches=(
                minimal_report.violations == replay.violations
                and minimal_report.counters == replay.counters
            ),
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


def _runner(scenario: Any, spec_overrides: Tuple = ()) -> ChaosRunner:
    return ChaosRunner(scenario, spec=scenario.spec(**dict(spec_overrides)))


def _sweep(
    runner: ChaosRunner, seeds: Sequence[int],
    reports: Optional[Iterable[ChaosReport]] = None,
) -> SweepResult:
    """Sweep over every CPU (or take the reports ``smoke`` started) and
    print the verdict."""
    result = runner.sweep(seeds, processes=None, reports=reports)
    scenario = runner.scenario
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


class _RowRunner:
    """A smoke row's runs, as units of work carry them. In this process
    they run on the row's runner — the one ``smoke`` sweeps, shrinks and
    reports with, built when the row comes up — so a row shares one
    scenario; a worker process receives only the row and builds its own."""

    def __init__(self, row: SmokeRow) -> None:
        self.row = row
        self._runner: Optional[ChaosRunner] = None

    def __getstate__(self) -> Dict[str, Any]:
        return {"row": self.row, "_runner": None}

    def runner(self) -> ChaosRunner:
        if self._runner is None:
            self._runner = _runner(self.row.build(), self.row.spec_overrides)
        return self._runner

    def _run(self, seed: int) -> ChaosReport:
        return self.runner()._run(seed)


def smoke(seeds: Sequence[int], report_path: Optional[str] = None) -> int:
    """The CI gate: correct policies stay clean; a broken policy is
    found, shrunk, and replays exactly.

    Every run of every row goes to one process pool up front, so while
    this process sweeps a row — accounting, shrinking, printing — the
    workers are already running later rows. Rows are swept in order, in
    this process, each on its own runner."""
    row_runners = [_RowRunner(row) for row in SMOKE_ROWS]
    failed = False
    entries: List[dict] = []
    with closing(parallel_map(_run_seed, [
        (row_runner, seed) for row_runner in row_runners
        for seed in seeds[: row_runner.row.max_seeds]
    ])) as reports:
        for row_runner in row_runners:
            row, runner = row_runner.row, row_runner.runner()
            row_seeds = seeds[: row.max_seeds]
            result = _sweep(runner, row_seeds, islice(reports, len(row_seeds)))
            entries.append(_report_entry(row.label, runner.scenario, result))
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
    result = _sweep(_runner(scenario), seeds)
    if args.report is not None:
        _write_report(
            args.report, [_report_entry(args.scenario, scenario, result)]
        )
    return 1 if result.failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
