"""E5 — Probabilistic business rules (§5.2).

Claim: "Distribution + Asynchrony ⇒ Probabilities of Enforcement." A cap
rule checked only against local knowledge is violated at a rate governed
by the reconciliation interval — the wider the async window, the more
often independently-legal work combines into a violation.

Replicated capped counter: requests land Poisson at N replicas, each
accepts while its *local* total stays under the cap. Gossip every P.
"""

from repro.analysis import Table
from repro.core import BusinessRule, Operation, Replica, RuleEngine, TypeRegistry
from repro.core.antientropy import gossip_every
from repro.errors import RuleViolation
from repro.sim import Simulator, Timeout


def build_registry():
    def apply_add(state, op):
        new = dict(state)
        new["total"] = new.get("total", 0) + op.args["amount"]
        return new

    registry = TypeRegistry(initial_state=dict)
    registry.register("ADD", apply_add)
    return registry


def cap_rule(cap):
    def check(state, _op):
        if state.get("total", 0) > cap:
            return f"total {state.get('total', 0)} > cap {cap}"
        return None

    return BusinessRule("cap", check)


def run_point(gossip_period, seed, cap=100, num_replicas=3, duration=50.0, rate=2.0):
    sim = Simulator(seed=seed)
    registry = build_registry()
    replicas = [
        Replica(f"r{i}", registry, rules=RuleEngine([cap_rule(cap)]),
                clock=lambda: sim.now)
        for i in range(num_replicas)
    ]
    accepted = {"n": 0}
    refused = {"n": 0}

    def submitter(replica, stream):
        rng = sim.rng.stream(stream)
        while sim.now < duration:
            yield Timeout(rng.expovariate(rate))
            op = Operation("ADD", {"amount": rng.randint(1, 5)},
                           ingress_time=sim.now)
            try:
                replica.submit(op)
                accepted["n"] += 1
            except RuleViolation:
                refused["n"] += 1

    for index, replica in enumerate(replicas):
        sim.spawn(submitter(replica, f"load-{index}"))
    gossip_every(sim, replicas, period=gossip_period, until=duration + 10 * gossip_period)
    sim.run()
    # Final truth: merge everything and count the overshoot.
    for replica in replicas[1:]:
        replicas[0].integrate(replica.ops.missing_from(replicas[0].ops))
    final_total = replicas[0].state.get("total", 0)
    overshoot = max(0, final_total - cap)
    return {
        "accepted": accepted["n"],
        "refused": refused["n"],
        "final_total": final_total,
        "overshoot": overshoot,
    }


def run_sweep():
    rows = []
    for period in (0.5, 2.0, 8.0, 32.0):
        points = [run_point(period, seed) for seed in range(5)]
        rows.append(
            (period,
             sum(p["accepted"] for p in points) / len(points),
             sum(p["overshoot"] for p in points) / len(points),
             sum(1 for p in points if p["overshoot"] > 0) / len(points))
        )
    return rows


def test_e05_probabilistic_rules(benchmark, show):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = Table(
        "E5  Cap rule under async enforcement (cap=100, 3 replicas)",
        ["gossip period s", "accepted ops", "avg overshoot", "violation prob"],
    )
    for period, accepted, overshoot, prob in rows:
        table.add_row(period, accepted, overshoot, prob)
    show(table)
    # Shape: the wider the async window, the worse the overshoot; tight
    # gossip keeps enforcement near-crisp.
    assert rows[0][2] <= rows[-1][2]
    assert rows[-1][2] > 0
    assert rows[-1][3] >= rows[0][3]
