"""The scenario harness: Crashable, the Scenario template's hook order,
a run's world living exactly as long as the run, the acked-write
oracle, and the smoke table's row order."""

import gc
import json
import weakref

import pytest

from repro.chaos.engine import ChaosTargets
from repro.chaos.harness import AckedWrites, Crashable, Scenario
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan, CrashEpisode
from repro.chaos.runner import SMOKE_ROWS, smoke
from repro.dynamo.cluster import DynamoCluster
from tests.chaos.worlds import keep_sims


def test_crashable_calls_through_once_per_transition_and_counts_restarts():
    calls = []
    target = Crashable(lambda cause: calls.append(("crash", cause)),
                       lambda: calls.append(("restart", target.restarts)))
    target.restart()  # already up: nothing to do
    target.crash("injected")
    target.crash("again")  # already down
    target.restart()
    target.restart()
    target.crash("injected")
    target.restart()
    assert calls == [
        ("crash", "injected"), ("restart", 1),
        ("crash", "injected"), ("restart", 2),
    ]
    assert target.up and target.restarts == 2


class _ToyScenario(Scenario):
    """Leaves a trace record per hook (and per invariant check), so the
    trace interleaves them with the engine's own install/restore marks."""

    name = "toy"
    horizon = 3.0

    def __init__(self, cadence=None):
        self.cadence = cadence
        self.node = Crashable(lambda cause: None, lambda: None)

    def _mark(self, what):
        self._sim.trace.emit("toy", what)

    def spec_defaults(self):
        return dict(nodes=("n0",), max_partitions=0, max_link_faults=0)

    def build(self, sim):
        self._mark("build")
        return ChaosTargets(sim, nodes={"n0": self.node})

    def invariants(self, monitor):
        self._mark("invariants")
        monitor.register("toy-holds", lambda: self._mark("check"))

    def drive(self, sim):
        self._mark("drive")

    def quiesce(self, sim):
        self._mark("quiesce")

    def finish(self, sim):
        self._mark("finish")


def _steps(sim):
    return [
        (record.time, record.kind)
        for record in sim.trace.iter()
        if record.actor in ("toy", "chaos")
    ]


def test_scenario_template_calls_hooks_in_order():
    scenario = _ToyScenario(cadence=1.0)
    sims = keep_sims(scenario)
    plan = ChaosPlan((CrashEpisode("n0", 1.5),))
    report = scenario.run(7, plan)
    assert _steps(sims[0]) == [
        (0.0, "build"),
        (0.0, "plan.installed"),
        (0.0, "invariants"),
        (0.0, "drive"),
        (1.0, "check"), (2.0, "check"), (3.0, "check"),  # monitor.start
        (3.0, "plan.restored"),  # after run(until=horizon)
        (3.0, "quiesce"),
        (3.0, "check"),  # check_now("quiesce")
        (3.0, "finish"),
    ]
    assert scenario.node.restarts == 1  # crashed by the plan, restored
    assert (report.scenario, report.seed, report.plan) == ("toy", 7, plan)
    assert not report.failed and report.end_time == 3.0
    assert report.counters["chaos.invariant.checks"] == 4


def test_scenario_without_cadence_checks_at_quiesce_only():
    scenario = _ToyScenario(cadence=None)
    sims = keep_sims(scenario)
    scenario.run(7, ChaosPlan())
    assert [kind for _t, kind in _steps(sims[0])].count("check") == 1
    assert scenario.spec(max_crashes=0).horizon == 3.0  # supplied by the template
    assert scenario.spec(max_crashes=0).sample(0) == ChaosPlan()


# ----------------------------------------------------------------------
# A run's world lives exactly as long as the run


def _private(scenario):
    return [key for key in vars(scenario) if key.startswith("_")]


@pytest.mark.parametrize("row", SMOKE_ROWS, ids=lambda row: row.label)
def test_a_runs_world_is_freed_the_moment_run_returns(row):
    """No explicit collection here: ``run`` itself leaves nothing that
    reaches its simulator, and frees the cycles the world is made of."""
    scenario = row.build()
    plan = scenario.spec(**dict(row.spec_overrides)).sample(0)
    built = []
    build = scenario.build

    def weakly(sim):
        built.append(weakref.ref(sim))
        return build(sim)

    scenario.build = weakly
    scenario.run(0, plan)
    assert len(built) == 1 and built[0]() is None
    assert _private(scenario) == []


class _Boom(Exception):
    pass


class _RecordingToy(_ToyScenario):
    """Records whether the collector ran automatically during the run;
    with ``boom``, its workload raises."""

    def __init__(self, boom):
        super().__init__()
        self.boom = boom
        self.collecting_during_run = None

    def drive(self, sim):
        self.collecting_during_run = gc.isenabled()
        if self.boom:
            raise _Boom


@pytest.mark.parametrize("boom", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_pauses_the_collector_and_restores_the_callers_state(enabled, boom):
    scenario = _RecordingToy(boom)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if boom:
            with pytest.raises(_Boom):
                scenario.run(7, ChaosPlan())
        else:
            scenario.run(7, ChaosPlan())
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert scenario.collecting_during_run is False
    assert _private(scenario) == []  # dropped on the way out either way


def _ring_with_acked_write():
    cluster = DynamoCluster(num_nodes=3, seed=11)
    writes = AckedWrites(
        cluster, "chaos.test", lost="gone", unconverged="never agreed"
    )
    writes.spawn_writer(cluster.client("writer"), "chaos.test.writer", 0.1, 0.3)
    cluster.sim.run(until=1.0)
    assert writes.acked and cluster.sim.metrics.counters()[
        "chaos.test.acked_puts"] == len(writes.acked)
    monitor = InvariantMonitor(cluster.sim)
    writes.invariants(monitor)
    return cluster, writes, monitor


def test_acked_write_audit_flags_value_held_only_by_a_dead_node():
    cluster, writes, monitor = _ring_with_acked_write()
    key, value = next(iter(writes.acked.items()))
    holders = [n for n in cluster.nodes.values() if n.versions_of(key)]
    for node in holders[1:]:
        del node.store[key]
    cluster.crash(holders[0].name)
    writes.repair(2, cluster.run_merkle_round)
    assert (key, value) in writes.lost
    found = {v.invariant: v.detail for v in monitor.check_now("quiesce")}
    assert found["no-acked-write-lost"].startswith(
        f"{len(writes.lost)} acked writes gone, first: [")

    # Nothing is lost once the holder is back: presence is judged on
    # live nodes only, and repair re-replicates the value.
    cluster.restart(holders[0].name)
    writes.repair(2, cluster.run_merkle_round)
    assert writes.lost == [] and writes.converged_at is not None
    # Both repairs converged (empty live frontiers agree too — which is
    # why "lost" is audited separately), each timing itself once.
    histogram = cluster.sim.metrics.histograms()["chaos.test.time_to_converged"]
    assert histogram.count == 2


def test_ring_reconverges_fires_when_the_rounds_run_out():
    cluster, writes, monitor = _ring_with_acked_write()
    writes.repair(0, cluster.run_merkle_round)
    assert writes.converged_at is None and writes.lost == []
    found = {v.invariant: v.detail for v in monitor.check_now("quiesce")}
    assert found == {"ring-reconverges": "never agreed"}


def test_no_reconvergence_claim_means_every_round_runs():
    cluster = DynamoCluster(num_nodes=3, seed=11)
    writes = AckedWrites(cluster, "chaos.test", lost="gone")
    monitor = InvariantMonitor(cluster.sim)
    writes.invariants(monitor)
    rounds = []

    def counted_round():
        rounds.append(cluster.sim.now)
        return cluster.run_merkle_round()

    writes.repair(3, counted_round)
    assert len(rounds) == 3 and writes.converged_at is None
    assert monitor.check_now("quiesce") == []  # ring-reconverges not registered


def test_smoke_table_rows_are_pinned():
    """bench/ reads the gate's sweeps by position; tier-1 does not run
    bench/tests, so the row order is pinned here too."""
    rows = [
        (row.label, row.build().name, row.caught, row.max_seeds)
        for row in SMOKE_ROWS
    ]
    assert rows == [
        ("bank_correct", "bank-clearing", False, None),
        ("cart_correct", "cart-dynamo", False, None),
        ("rejoin_snapshot", "rejoin", False, None),
        ("rejoin_nosnapshot", "rejoin", False, None),
        ("ring_rebalance", "ring_rebalance", False, None),
        ("membership_divergence", "membership_divergence", False, None),
        ("retrystorm_resilient", "retry-storm", False, None),
        ("retrystorm_naive", "retry-storm", False, None),
        ("mixed_txn_leader", "mixed-txn", False, None),
        ("mixed_txn_minority", "mixed-txn", False, None),
        ("splitbrain_fenced", "split-brain", False, None),
        ("splitbrain_unfenced", "split-brain", True, None),
        ("game_day", "game-day", False, 2),
        ("bank_amnesiac", "bank-clearing", True, None),
    ]


def test_smoke_report_entries_carry_distinct_config_labels(tmp_path, capsys):
    path = tmp_path / "chaos-report.json"
    assert smoke([0], report_path=str(path)) == 0
    sweeps = json.loads(path.read_text())["sweeps"]
    labels = [entry["config"] for entry in sweeps]
    assert labels == [row.label for row in SMOKE_ROWS]
    assert len(set(labels)) == 14
    # What the label is for: the two mixed-txn sweeps are otherwise identical.
    leader, minority = sweeps[8], sweeps[9]
    assert {k: v for k, v in leader.items() if k != "config"} == {
        k: v for k, v in minority.items() if k != "config"
    }
    assert capsys.readouterr().out.count("runs=1 ") == 14
