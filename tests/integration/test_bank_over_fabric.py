"""Composition: the §6.2 bank running on the networked gossip runtime —
the account op-space, overdraft rules, and apologies all ride the fabric."""

from repro.bank import build_account_registry, overdraft_rule
from repro.core import Operation
from repro.core.rules import RuleEngine
from repro.gossip import GossipCluster


def clear(amount, number, at):
    return Operation(
        "CLEAR_CHECK", {"amount": amount},
        uniquifier=f"fnb:acct:{number}", ingress_time=at,
    )


def deposit(amount, uniq, at=0.0):
    return Operation("DEPOSIT", {"amount": amount}, uniquifier=uniq, ingress_time=at)


def run(cluster, until):
    for node in cluster.nodes.values():
        node.run(until)
    cluster.sim.run(until=until)


def make_cluster(seed=13):
    return GossipCluster(
        build_account_registry(),
        num_replicas=2,
        period=0.5,
        seed=seed,
        rules_factory=lambda: RuleEngine([overdraft_rule()]),
    )


def test_replicated_clearing_over_the_network():
    cluster = make_cluster()
    opening = deposit(1000.0, "opening")
    for name in cluster.nodes:
        cluster.replica(name).integrate([opening])
    # Both branches clear big checks while the gossip hasn't run yet.
    cluster.submit("g0", clear(600.0, 1, at=0.0))
    cluster.submit("g1", clear(600.0, 2, at=0.0))
    run(cluster, until=10.0)
    assert cluster.converged()
    balances = [state["balance"] for state in cluster.states()]
    assert abs(balances[0] - balances[1]) < 1e-6
    assert balances[0] == -200.0  # the joint overdraft happened
    assert len(cluster.ledger.apologies) >= 1  # and was detected over the wire


def test_same_check_at_both_branches_debits_once_over_the_network():
    cluster = make_cluster(seed=17)
    opening = deposit(1000.0, "opening")
    for name in cluster.nodes:
        cluster.replica(name).integrate([opening])
    the_check = clear(100.0, 7, at=0.0)
    cluster.submit("g0", the_check)
    cluster.submit("g1", clear(100.0, 7, at=0.1))  # same check number
    run(cluster, until=10.0)
    assert cluster.converged()
    assert all(state["balance"] == 900.0 for state in cluster.states())


def test_local_refusal_still_works_at_each_branch():
    from repro.errors import RuleViolation

    cluster = make_cluster(seed=19)
    opening = deposit(50.0, "opening")
    for name in cluster.nodes:
        cluster.replica(name).integrate([opening])
    try:
        cluster.submit("g0", clear(100.0, 1, at=0.0))
        bounced = False
    except RuleViolation:
        bounced = True
    assert bounced
    run(cluster, until=5.0)
    assert all(state["balance"] == 50.0 for state in cluster.states())
