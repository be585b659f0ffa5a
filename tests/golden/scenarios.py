"""Seeded runs whose rendered traces are frozen as golden fixtures.

The fixtures under ``tests/golden/fixtures/`` were captured from the
kernel *before* the perf overhaul (lazy trace formatting, batched drain
loop, network fast path). Every kernel optimization must keep these runs
bit-identical: same rendered trace lines, same final counters, same end
time. If a fixture ever needs regenerating, that is a semantic change to
the simulator and needs to be called out loudly in review:

    PYTHONPATH=src python -m tests.golden.capture
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario
from repro.errors import TransactionAborted
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig
from repro.net.topology import Site, Topology, TopologyNetwork, WanLink
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.tandem import TandemConfig, TandemSystem
from tests.chaos.worlds import keep_sims

FIXTURES = Path(__file__).parent / "fixtures"


def render_trace(sim: Any) -> str:
    """The canonical rendered form of a run's trace: one repr per record,
    then the eviction count and final clock. This is what must stay
    bit-identical across kernel optimizations."""
    lines = [repr(record) for record in sim.trace.records]
    lines.append(f"dropped={sim.trace.dropped}")
    lines.append(f"end={sim.now:.6g}")
    return "\n".join(lines) + "\n"


def render_counters(counters: Dict[str, float]) -> str:
    return json.dumps(counters, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# The three frozen runs


def _run_scenario(scenario: Any, seed: int) -> Tuple[str, str]:
    sims = keep_sims(scenario)
    report = scenario.run(seed, scenario.spec().sample(seed))
    return render_trace(sims[0]), render_counters(report.counters)


def run_bank(seed: int = 7) -> Tuple[str, str]:
    return _run_scenario(BankClearingScenario(policy="correct"), seed)


def run_cart(seed: int = 11) -> Tuple[str, str]:
    return _run_scenario(CartDynamoScenario(policy="correct"), seed)


def run_tandem(seed: int = 3) -> Tuple[str, str]:
    system = TandemSystem(TandemConfig(mode="dp2", num_dps=2), seed=seed)
    sim = system.sim
    client = system.client()
    rng = sim.rng.stream("golden.tandem")

    def job():
        for i in range(25):
            txn = client.begin()
            try:
                yield from client.write(txn, f"dp{i % 2}", f"k{i % 5}", i)
                if rng.random() < 0.3:
                    yield from client.write(txn, f"dp{(i + 1) % 2}", f"j{i % 3}", i)
                yield from client.commit(txn)
            except TransactionAborted:
                sim.metrics.inc("golden.aborted")
            yield Timeout(0.002 * rng.uniform(0.5, 1.5))

    def saboteur():
        yield Timeout(0.03)
        aborted = system.crash_primary("dp0")
        sim.metrics.inc("golden.crash_aborts", len(aborted))

    sim.spawn(job(), name="golden.tandem.job")
    sim.spawn(saboteur(), name="golden.tandem.saboteur")
    sim.run(until=1.0)
    counters = sim.metrics.counters()
    counters["golden.committed_durable"] = float(system.committed_durable())
    return render_trace(sim), render_counters(counters)


def run_recovery(seed: int = 5) -> Tuple[str, str]:
    """The frozen recovery story: commits under a running snapshotter,
    fail-over (east crashes cold), a few txns in the new regime, then
    east rejoins — snapshot load, tail replay, CATCHUP re-ship. The trace
    pins the whole checkpoint/recover/rejoin path bit-for-bit."""
    system = LogShippingSystem(
        ship_interval=0.02, seed=seed, snapshot_cadence=0.4
    )
    sim = system.sim

    def job():
        for i in range(20):
            yield from system.submit({f"k{i % 5}": i})
            yield Timeout(0.05)
        # Crash before the next checkpoint fires, so recovery replays a
        # real WAL tail past the last covered LSN.
        yield Timeout(0.05)
        system.fail_over()
        for i in range(3):
            yield from system.submit({f"post{i}": i})
            yield Timeout(0.05)
        result = yield from system.rejoin("east")
        sim.metrics.inc("golden.tail_replayed", result["replayed_records"])
        yield Timeout(2.0)

    sim.run_process(job())
    counters = sim.metrics.counters()
    counters["golden.states_match"] = float(
        system.backup.state == system.primary.state
    )
    return render_trace(sim), render_counters(counters)


def run_geo(seed: int = 13) -> Tuple[str, str]:
    """The frozen two-datacenter run: log shipping across a
    :class:`TopologyNetwork` (east in one site, west + client in the
    other), a scripted WAN cut mid-stream, writes acked locally while
    shipping retries into the cut, then heal and drain. Pins the
    site-routed latency path, the site-pair fault overlay, and the
    bandwidth pipe bit-for-bit."""
    sim = Simulator(seed=seed)
    lan = FixedLatency(0.0005)
    topology = Topology(
        [Site("dc-a", lan=lan), Site("dc-b", lan=lan)],
        default_wan=WanLink(FixedLatency(0.02), bandwidth=500.0),
    )
    network = TopologyNetwork(
        sim, topology, default_link=LinkConfig(latency=FixedLatency(0.001))
    )
    system = LogShippingSystem(
        mode=ShipMode.ASYNC, ship_interval=0.02, sim=sim, network=network
    )
    topology.place("east", "dc-a")
    topology.place_all(("west", "lsclient"), "dc-b")

    def job():
        for i in range(6):
            yield from system.submit({f"k{i % 3}": i})
            yield Timeout(0.05)
        faults = network.cut_sites("dc-a", "dc-b")
        for i in range(6, 12):
            yield from system.submit({f"k{i % 3}": i})
            yield Timeout(0.05)
        network.heal_sites(faults)
        yield Timeout(2.0)

    sim.run_process(job())
    counters = sim.metrics.counters()
    counters["golden.states_match"] = float(
        system.backup.state == system.primary.state
    )
    return render_trace(sim), render_counters(counters)


GOLDEN_RUNS = {
    "bank_seed7": run_bank,
    "cart_seed11": run_cart,
    "geo_seed13": run_geo,
    "recovery_seed5": run_recovery,
    "tandem_seed3": run_tandem,
}


def fixture_paths(name: str) -> Tuple[Path, Path]:
    return FIXTURES / f"{name}.trace.txt", FIXTURES / f"{name}.counters.json"
