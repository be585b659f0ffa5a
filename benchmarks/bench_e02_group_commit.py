"""E2 — Group commit: the car per driver vs the city bus (§3.2).

Claim: "waiting to participate in shared buffer writes can, under the
right circumstances, result in a reduction of latency since the overall
system work is reduced."

Sweep offered commit rate against bus-timer settings; the crossover —
bus loses when idle, wins under load — is the experiment.
"""

from repro.analysis import Table
from repro.sim import Simulator, Timeout
from repro.storage import Disk
from repro.tandem import GroupCommitter


def run_point(timer, inter_arrival, arrivals=300, seed=7):
    sim = Simulator(seed=seed)
    disk = Disk(sim)
    committer = GroupCommitter(sim, disk, timer=timer)

    def arrival_process():
        rng = sim.rng.stream("arrivals")
        for _ in range(arrivals):
            yield Timeout(rng.expovariate(1.0 / inter_arrival))
            sim.spawn(committer.commit())

    sim.spawn(arrival_process())
    sim.run()
    hist = sim.metrics.histogram("groupcommit.latency")
    busses = sim.metrics.counter("groupcommit.busses").value
    riders = sim.metrics.counter("groupcommit.riders").value
    return {
        "mean_ms": hist.mean * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "riders_per_bus": riders / busses if busses else 1.0,
    }


def run_sweep():
    results = {}
    for label, inter_arrival in (("idle (100ms)", 0.1), ("busy (2ms)", 0.002), ("overloaded (1ms)", 0.001)):
        for timer in (None, 0.002, 0.005):
            results[(label, timer)] = run_point(timer, inter_arrival)
    return results


def test_e02_group_commit():
    results = run_sweep()
    table = Table(
        "E2  Group commit latency vs offered load (disk 5ms)",
        ["load", "bus timer", "mean ms", "p99 ms", "riders/bus"],
    )
    for (label, timer), point in results.items():
        table.add_row(
            label,
            "none (car)" if timer is None else f"{timer * 1e3:.0f}ms",
            point["mean_ms"],
            point["p99_ms"],
            point["riders_per_bus"],
        )
    table.print()
    # Shape: idle → car wins; overloaded → bus wins big.
    assert results[("idle (100ms)", None)]["mean_ms"] < results[("idle (100ms)", 0.002)]["mean_ms"]
    assert results[("overloaded (1ms)", 0.002)]["mean_ms"] < results[("overloaded (1ms)", None)]["mean_ms"] / 2
    assert results[("overloaded (1ms)", 0.002)]["riders_per_bus"] > 2
