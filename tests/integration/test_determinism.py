"""Determinism regression: the whole stack is a pure function of its seed.

Every probabilistic claim in the repo (loss windows, violation rates,
chaos replays) rests on this: the same seed gives bit-identical metric
counters and trace sequences; different seeds actually diverge.
"""

from repro.bank.account import build_account_registry, overdraft_rule
from repro.cart import CartService, OpCartStrategy
from repro.chaos.scenarios import BankClearingScenario
from repro.core.operation import Operation
from repro.core.rules import RuleEngine
from repro.dynamo import DynamoCluster
from repro.gossip import GossipCluster
from repro.sim import Simulator, Timeout


def run_tour(seed):
    """A grand-tour-style run touching gossip, bank ops, Dynamo, and the
    cart on one simulator; returns (counters, trace) for comparison."""
    sim = Simulator(seed=seed)

    bank = GossipCluster(
        build_account_registry(),
        num_replicas=3,
        period=0.5,
        sim=sim,
        rules_factory=lambda: RuleEngine([overdraft_rule()]),
    )
    for replica_name in bank.nodes:
        bank.replica(replica_name).integrate([
            Operation("DEPOSIT", {"amount": 500.0}, uniquifier="opening",
                      origin="bank", ingress_time=0.0)
        ])

    cluster = DynamoCluster(num_nodes=4, sim=sim)
    cart = CartService(cluster, OpCartStrategy())

    def workload():
        rng = sim.rng.stream("tour.workload")
        names = list(bank.nodes)
        for i in range(12):
            yield Timeout(rng.uniform(0.2, 0.8))
            branch = names[rng.randrange(len(names))]
            bank.submit(branch, Operation(
                "CLEAR_CHECK", {"amount": round(rng.uniform(1.0, 20.0), 2),
                                "check_no": i},
                uniquifier=f"check:{i}", origin=branch, ingress_time=sim.now,
            ))
            yield from cart.add("tour-cart", f"item{i}")

    sim.spawn(workload(), name="tour")
    for gnode in bank.nodes.values():
        gnode.run(12.0)
    sim.run(until=12.0)

    counters = sim.metrics.counters()
    trace = tuple(repr(record) for record in sim.trace.records)
    return counters, trace


def test_same_seed_is_bit_identical():
    first_counters, first_trace = run_tour(7)
    second_counters, second_trace = run_tour(7)
    assert first_counters == second_counters
    assert first_trace == second_trace


def test_different_seeds_diverge():
    baseline = run_tour(7)
    other = run_tour(8)
    assert baseline != other


def test_chaos_scenario_reports_are_reproducible():
    scenario = BankClearingScenario(policy="correct")
    plan = scenario.spec().sample(3)
    first = scenario.run(3, plan)
    second = scenario.run(3, plan)
    assert first.counters == second.counters
    assert first.violations == second.violations
    assert first.end_time == second.end_time
