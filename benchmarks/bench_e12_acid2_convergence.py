"""E12 — ACID 2.0: order-independence and convergence (§7.6, §8).

Claims: "Replicas that have seen the same work should see the same
result, independent of the order in which the work has arrived," and the
time to "eventually we'll talk and be consistent" scales with how often
the replicas talk.

N replicas of a commutative op-space; Poisson ingress at random
replicas; gossip at period P. Measure state agreement after every replica
holds the same knowledge, and the time from last ingress to convergence.
"""

from repro.analysis import Table
from repro.core import Operation, Replica, TypeRegistry
from repro.core.antientropy import converged, gossip_every
from repro.sim import Simulator, Timeout


def build_registry():
    def apply_add(state, op):
        new = dict(state)
        key = op.args["key"]
        new[key] = new.get(key, 0) + op.args["amount"]
        return new

    registry = TypeRegistry(initial_state=dict)
    registry.register("ADD", apply_add)
    return registry


def run_point(gossip_period, seed, num_replicas=5, ops=60, ingress_window=30.0):
    sim = Simulator(seed=seed)
    registry = build_registry()
    replicas = [
        Replica(f"r{i}", registry, clock=lambda: sim.now) for i in range(num_replicas)
    ]

    def ingress():
        rng = sim.rng.stream("ingress")
        for i in range(ops):
            yield Timeout(ingress_window / ops)
            replica = rng.choice(replicas)
            replica.submit(
                Operation("ADD", {"key": f"k{rng.randint(0, 9)}", "amount": 1},
                          ingress_time=sim.now)
            )

    sim.spawn(ingress())
    horizon = ingress_window + 100 * gossip_period
    gossip_every(sim, replicas, period=gossip_period, until=horizon)
    convergence_time = None
    last_ingress = ingress_window

    def watch():
        while True:
            yield Timeout(gossip_period / 2)
            if sim.now > last_ingress and converged(replicas):
                return sim.now

    converge_at = sim.run_process(watch(), until=horizon)
    convergence_time = converge_at - last_ingress
    states_equal = all(r.state == replicas[0].state for r in replicas)
    canonical_equal = all(
        r.canonical_state() == replicas[0].canonical_state() for r in replicas
    )
    arrival_orders_differ = len(
        {tuple(op.uniquifier for op in r.ops) for r in replicas}
    ) > 1
    return {
        "convergence_time": convergence_time,
        "states_equal": states_equal,
        "canonical_equal": canonical_equal,
        "arrival_orders_differ": arrival_orders_differ,
    }


def run_sweep():
    rows = []
    for period in (0.5, 2.0, 8.0):
        points = [run_point(period, seed) for seed in range(4)]
        n = len(points)
        rows.append(
            (period,
             sum(p["convergence_time"] for p in points) / n,
             all(p["states_equal"] for p in points),
             all(p["canonical_equal"] for p in points),
             any(p["arrival_orders_differ"] for p in points))
        )
    return rows


def test_e12_acid2_convergence(benchmark, show):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = Table(
        "E12  5 replicas, 60 ops: order-independence and time to converge",
        ["gossip period s", "time to converge s", "states equal",
         "canonical equal", "arrival orders differed"],
    )
    for row in rows:
        table.add_row(*row)
    show(table)
    # Shape: states agree despite different arrival orders; convergence
    # time scales with the gossip period.
    assert all(row[2] and row[3] for row in rows)
    assert any(row[4] for row in rows)
    assert rows[0][1] < rows[-1][1]
