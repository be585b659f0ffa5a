"""The layer ladder: rungs and probes, timed from outside ``src/``.

*Rungs* push the same request count through successively taller stacks
and report each rung's cost minus the rung below (scheduler → RPC →
resilience → Dynamo GET/PUT). *Probes* time one layer's public function
directly on inputs shaped like the workloads'. Every time is the median
of ``REPEATS`` runs; every count repeats exactly at a fixed seed.

These numbers do not depend on which workload is being traced; the
per-workload ones (events, messages per op, self-time shares) come from
the traced laps in ``bench.runner``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import statistics
import time
import tracemalloc
from typing import Any, Callable, Dict, Generator, List, Tuple

from bench import inputs as bench_inputs
from bench.workloads import RpcLadder
from repro.cart.operations import CartOp
from repro.cart.strategies import OpCartStrategy
from repro.chaos import runner as chaos_runner
from repro.cluster.gossip_membership import MembershipGossip, MembershipView
from repro.dynamo.cluster import DynamoCluster
from repro.dynamo.merkle import all_digests
from repro.dynamo.ring import HashRing
from repro.dynamo.versions import VectorClock, VersionedValue, prune_dominated
from repro.logship import LogShippingSystem
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import LinkConfig, Network
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk
from repro.storage.snapshot import SnapshotStore, recover
from repro.storage.wal import WriteAheadLog
from repro.tandem import TandemConfig, TandemSystem
from repro.workload.zipf import ZipfKeyGenerator

REPEATS = 3

#: ``smoke()`` sweeps its configurations in this order; the second field
#: is the ``SweepResult.scenario`` each must report (guards reordering).
CHAOS_CONFIGS: Tuple[Tuple[str, str], ...] = (
    ("bank_correct", "bank-clearing"),
    ("cart_correct", "cart-dynamo"),
    ("rejoin_snapshot", "rejoin"),
    ("rejoin_nosnapshot", "rejoin"),
    ("ring_rebalance", "ring_rebalance"),
    ("membership_divergence", "membership_divergence"),
    ("retrystorm_resilient", "retry-storm"),
    ("retrystorm_naive", "retry-storm"),
    ("mixed_txn_leader", "mixed-txn"),
    ("mixed_txn_minority", "mixed-txn"),
    ("splitbrain_fenced", "split-brain"),
    ("splitbrain_unfenced", "split-brain"),
    ("game_day", "game-day"),
    ("bank_amnesiac", "bank-clearing"),
)


def _median_s(fn: Callable[[], Any], repeats: int = REPEATS) -> float:
    """Median wall seconds of ``fn()``; ``fn`` may return its own timing
    (seconds) when only part of it is the timed section."""
    samples = []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        own = fn()
        elapsed = time.perf_counter() - started
        samples.append(own if isinstance(own, float) else elapsed)
    return statistics.median(samples)


def _loaded_cluster(nodes: int, keys: int, seed: int) -> DynamoCluster:
    """A converged ring: ``keys`` versions straight onto their owners."""
    cluster = DynamoCluster(num_nodes=nodes, sim=Simulator(seed=seed))
    clock = VectorClock({"loader": 1})
    for index in range(keys):
        key = f"k{index}"
        for owner in cluster.ring.intended_owners(key, cluster.n):
            cluster.nodes[owner].store_version(key, VersionedValue(index, clock))
    return cluster


# ----------------------------------------------------------------------
# repro.sim


def sim_layer(seed: int) -> Dict[str, float]:
    events = 300_000

    def churn() -> float:
        # Timers plus the zero-delay cascade every process resume makes.
        sim = Simulator(seed=seed)
        fired = [0]

        def cont() -> None:
            fired[0] += 1

        def tick() -> None:
            fired[0] += 1
            if fired[0] < events:
                sim.schedule(0.0, cont)
                sim.schedule(0.0, cont)
                sim.schedule(0.0, cont)
                sim.schedule(0.13, tick)

        for k in range(64):
            sim.schedule(0.01 * (k + 1), tick)
        started = time.perf_counter()
        sim.run()
        return (time.perf_counter() - started) / sim.steps

    resumes = 200_000

    def sleepers() -> float:
        sim = Simulator(seed=seed)

        def sleeper(count: int) -> Generator[Any, Any, None]:
            for _ in range(count):
                yield Timeout(0.001)

        for index in range(8):
            sim.spawn(sleeper(resumes // 8), name=f"sleeper{index}")
        started = time.perf_counter()
        sim.run()
        return (time.perf_counter() - started) / resumes

    emits = 200_000

    def emit() -> float:
        sim = Simulator(seed=seed)
        log = sim.trace.emit
        started = time.perf_counter()
        for n in range(emits):
            log("probe", "tick", n=n, peer="node3")
        return (time.perf_counter() - started) / emits

    def observe() -> float:
        sim = Simulator(seed=seed)
        record = sim.metrics.observe
        started = time.perf_counter()
        for n in range(emits):
            record("probe.latency", 0.002)
        return (time.perf_counter() - started) / emits

    return {
        "sim.sched_us_per_event": _median_s(churn) * 1e6,
        "sim.process_us_per_resume": _median_s(sleepers) * 1e6,
        "sim.trace_emit_us": _median_s(emit) * 1e6,
        "sim.metrics_observe_us": _median_s(observe) * 1e6,
    }


# ----------------------------------------------------------------------
# repro.net / repro.resilience: the RPC rungs


def rpc_rungs(seed: int, sched_us_per_event: float) -> Dict[str, float]:
    messages = 100_000

    def send() -> float:
        sim = Simulator(seed=seed)
        network = Network(sim)
        network.attach("src")
        network.attach("sink")
        batch = [Message(src="src", dst="sink", kind="NOISE", payload={"n": n})
                 for n in range(messages)]
        started = time.perf_counter()
        for msg in batch:
            network.send(msg)
        sim.run()
        return (time.perf_counter() - started) / messages

    script = bench_inputs.rpc_ladder(seed, 0.25)
    calls = sum(len(part) for part in script["plain"])
    rung: Dict[str, List[float]] = {"on": [], "off": [], "resilient": []}
    events_per_call = 0.0
    retry_share = 0.0
    for repeat in range(2 * REPEATS - 1):
        # Alternate which setting runs first so drift cancels.
        for trace_on in ((True, False) if repeat % 2 else (False, True)):
            ladder = RpcLadder(script)
            ladder.sim.trace.enabled = trace_on
            gc.collect()
            ladder.run_phase("plain")
            rung["on" if trace_on else "off"].append(ladder.phase_s["plain"] / calls)
            if trace_on and len(rung["resilient"]) < REPEATS:
                events_per_call = ladder.sim.steps / calls
                gc.collect()
                ladder.run_phase("resilient")
                rung["resilient"].append(ladder.phase_s["resilient"] / calls)
                retry_share = ladder.finish()["extras"]["retries"] / calls
    plain_us = statistics.median(rung["on"]) * 1e6
    untraced_us = statistics.median(rung["off"]) * 1e6
    resilient_us = statistics.median(rung["resilient"]) * 1e6
    return {
        "net.send_us_per_msg": _median_s(send) * 1e6,
        # Rung minus the rung below: what a call costs beyond scheduling
        # the events it generates.
        "net.rpc_us_per_call": plain_us - events_per_call * sched_us_per_event,
        "resilience.us_per_call_over_rpc": resilient_us - plain_us,
        "resilience.retry_share": retry_share,
        "sim.trace_on_overhead_frac": (plain_us - untraced_us) / untraced_us,
        "_plain_rpc_us_per_call": plain_us,
    }


# ----------------------------------------------------------------------
# repro.workload


def workload_layer(seed: int) -> Dict[str, float]:
    built: List[ZipfKeyGenerator] = []

    def build() -> None:
        built[:] = [ZipfKeyGenerator(random.Random(seed), 1_000_000, 0.99)]

    build_s = _median_s(build)
    keys = built[0]
    draws = 200_000

    def draw() -> float:
        started = time.perf_counter()
        for _ in range(draws):
            keys.key()
        return (time.perf_counter() - started) / draws

    draw_us = _median_s(draw) * 1e6
    del built[:], keys
    gc.collect()
    tracemalloc.start()
    ZipfKeyGenerator(random.Random(seed), 1_000_000, 0.99)
    heap_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return {
        "workload.zipf_build_s": build_s,
        "workload.zipf_build_heap_mb": heap_mb,
        "workload.zipf_draw_us": draw_us,
    }


# ----------------------------------------------------------------------
# repro.dynamo


def dynamo_layer(seed: int, plain_rpc_us: float) -> Dict[str, float]:
    generator = ZipfKeyGenerator(random.Random(seed), 100_000, 0.99)
    sampled = [generator.key() for _ in range(100_000)]
    ring = HashRing([f"node{i}" for i in range(8)], vnodes=16)

    def lookup() -> float:
        started = time.perf_counter()
        for key in sampled:
            ring.preference_list(key, 3)
        return (time.perf_counter() - started) / len(sampled)

    requests = 3_000

    def client_rung(verb: str) -> Callable[[], float]:
        def rung() -> float:
            cluster = _loaded_cluster(8, 2_000, seed)
            client = cluster.client("probe")
            picks = random.Random(seed).choices(range(2_000), k=requests)

            def loop() -> Generator[Any, Any, None]:
                for pick in picks:
                    if verb == "get":
                        yield from client.get(f"k{pick}")
                    else:
                        yield from client.put(f"k{pick}", pick)

            gc.collect()
            started = time.perf_counter()
            cluster.sim.run_process(loop())
            return (time.perf_counter() - started) / requests
        return rung

    clock = VectorClock({"device1": 3, "device2": 1})
    frontier = [VersionedValue(n, clock) for n in range(3)] + [
        VersionedValue("sibling", VectorClock({"device3": 1}))
    ]
    prunes = 100_000

    def prune() -> float:
        started = time.perf_counter()
        for _ in range(prunes):
            prune_dominated(frontier)
        return (time.perf_counter() - started) / prunes

    store = {
        f"k{n}": [VersionedValue(n, VectorClock({"loader": 1}))]
        for n in range(5_000)
    }
    converged = _loaded_cluster(6, 2_000, seed)
    sent = converged.sim.metrics.counter("net.sent")
    round_msgs: List[float] = []

    def converged_round() -> float:
        before = sent.value
        started = time.perf_counter()
        converged.sim.run_process(converged.run_merkle_round())
        elapsed = time.perf_counter() - started
        round_msgs.append(sent.value - before)
        return elapsed

    reshape: Dict[str, List[float]] = {"join": [], "decommission": []}
    for _ in range(REPEATS):
        cluster = _loaded_cluster(8, 3_000, seed)
        gc.collect()
        started = time.perf_counter()
        cluster.sim.run_process(cluster.join("node8"))
        reshape["join"].append(time.perf_counter() - started)
        started = time.perf_counter()
        cluster.sim.run_process(cluster.decommission("node0"))
        reshape["decommission"].append(time.perf_counter() - started)

    fan_out = 3  # N: every GET and PUT is one RPC per replica
    return {
        "dynamo.ring_lookup_us": _median_s(lookup) * 1e6,
        "dynamo.get_us": _median_s(client_rung("get"), 5) * 1e6 - fan_out * plain_rpc_us,
        "dynamo.put_us": _median_s(client_rung("put"), 5) * 1e6 - fan_out * plain_rpc_us,
        "dynamo.clock_prune_us": _median_s(prune) * 1e6,
        "dynamo.merkle_digest_ms": _median_s(lambda: all_digests(store, 16)) * 1e3,
        "dynamo.antientropy_converged_round_ms": _median_s(converged_round) * 1e3,
        "dynamo.antientropy_converged_msgs": statistics.median(round_msgs),
        "dynamo.join_ms": statistics.median(reshape["join"]) * 1e3,
        "dynamo.decommission_ms": statistics.median(reshape["decommission"]) * 1e3,
    }


# ----------------------------------------------------------------------
# repro.cart / repro.cluster


def cart_layer(_seed: int) -> Dict[str, float]:
    strategy = OpCartStrategy()

    def blob(size: int, tag: str) -> List[Dict[str, Any]]:
        return [
            CartOp("ADD", f"item{n % 64}", uniquifier=f"{tag}-{n}", time=n * 0.01).to_wire()
            for n in range(size)
        ]

    fresh = CartOp("ADD", "item7", uniquifier="fresh-op", time=99.0)
    small, large, mid = blob(8, "s"), blob(512, "l"), blob(64, "m")
    siblings = [mid, blob(64, "m")[:32] + blob(32, "x"), blob(64, "y")]

    def per_call(fn: Callable[[], Any], count: int) -> Callable[[], float]:
        def timed() -> float:
            started = time.perf_counter()
            for _ in range(count):
                fn()
            return (time.perf_counter() - started) / count
        return timed

    return {
        "cart.apply_us_small": _median_s(per_call(lambda: strategy.apply(small, fresh), 50_000)) * 1e6,
        "cart.apply_us_large": _median_s(per_call(lambda: strategy.apply(large, fresh), 5_000)) * 1e6,
        "cart.merge_us": _median_s(per_call(lambda: strategy.merge(siblings), 5_000)) * 1e6,
        "cart.view_us": _median_s(per_call(lambda: strategy.view(mid), 2_000)) * 1e6,
    }


def cluster_layer(seed: int) -> Dict[str, float]:
    names = [f"m{i}" for i in range(12)]
    sim = Simulator(seed=seed)
    network = Network(sim, default_link=LinkConfig(latency=FixedLatency(0.002)))
    views = {}
    gossips = {}
    for name in names:
        views[name] = MembershipView(name, sim, suspicion_timeout=1.0)
        views[name].seed(names)
        gossips[name] = MembershipGossip(views[name], network=network, fanout=2)
    wire = views["m1"].snapshot()  # 12 entries, nothing new: steady state
    merges = 20_000

    def merge() -> float:
        target = views["m0"]
        started = time.perf_counter()
        for _ in range(merges):
            target.merge_wire(wire)
        return (time.perf_counter() - started) / merges

    rounds = 600

    def gossip_rounds() -> float:
        started = time.perf_counter()
        for index in range(rounds):
            sim.run_process(gossips[names[index % 12]].round_once())
        return (time.perf_counter() - started) / rounds

    return {
        "cluster.view_merge_us": _median_s(merge) * 1e6,
        "cluster.gossip_round_us": _median_s(gossip_rounds) * 1e6,
    }


# ----------------------------------------------------------------------
# Protocol probes: storage / logship / tandem


def protocol_probes(seed: int) -> Dict[str, float]:
    appends = 100_000

    def wal_append() -> float:
        sim = Simulator(seed=seed)
        wal = WriteAheadLog(sim, Disk(sim))
        started = time.perf_counter()
        for n in range(appends):
            wal.append("WRITE", txn_id=n, key="k", value=n)
        return (time.perf_counter() - started) / appends

    state = {f"k{n}": n for n in range(5_000)}

    def snapshot_install() -> float:
        sim = Simulator(seed=seed)
        store = SnapshotStore(sim)
        started = time.perf_counter()
        sim.run_process(store.install(dict(state), lsn=1))
        return time.perf_counter() - started

    def recovery() -> float:
        sim = Simulator(seed=seed)
        wal = WriteAheadLog(sim, Disk(sim))
        store = SnapshotStore(sim)

        def history() -> Generator[Any, Any, None]:
            for txn in range(1_500):
                wal.append("WRITE", txn_id=txn, key=f"k{txn % 500}", value=txn)
                wal.append("COMMIT", txn_id=txn)
                if txn % 50 == 49:
                    yield from wal.flush()
                if txn == 499:
                    yield from store.install(dict(state), lsn=wal.durable_lsn)

        sim.run_process(history())
        started = time.perf_counter()
        result = sim.run_process(recover(store, wal))
        elapsed = time.perf_counter() - started
        if result.replayed_txns != 1_000:
            raise RuntimeError(f"recovery replayed {result.replayed_txns} txns")
        return elapsed

    submits = 1_000

    def logship_submit() -> float:
        system = LogShippingSystem(ship_interval=0.02, seed=seed)

        def job() -> Generator[Any, Any, None]:
            for n in range(submits):
                yield from system.submit({f"k{n % 16}": n})

        started = time.perf_counter()
        system.sim.run_process(job())
        return (time.perf_counter() - started) / submits

    txns = 500

    def tandem_txn() -> float:
        system = TandemSystem(TandemConfig(mode="dp2", num_dps=2), seed=seed)
        client = system.client()

        def jobs() -> Generator[Any, Any, None]:
            for i in range(txns):
                txn = client.begin()
                yield from client.write(txn, f"dp{i % 2}", f"k{i % 8}", i)
                yield from client.write(txn, f"dp{(i + 1) % 2}", f"j{i % 8}", i)
                yield from client.commit(txn)

        started = time.perf_counter()
        system.sim.run_process(jobs())
        return (time.perf_counter() - started) / txns

    return {
        "storage.wal_append_us": _median_s(wal_append) * 1e6,
        "storage.snapshot_install_ms": _median_s(snapshot_install) * 1e3,
        "storage.recover_ms": _median_s(recovery) * 1e3,
        "logship.submit_us": _median_s(logship_submit) * 1e6,
        "tandem.txn_us": _median_s(tandem_txn) * 1e6,
    }


# ----------------------------------------------------------------------
# repro.chaos


def chaos_layer(seed: int) -> Dict[str, float]:
    """Per-configuration cost of the smoke gate: ``smoke()`` is one
    function, so the split comes from timing ``ChaosRunner.sweep`` (and
    ``shrink_case`` inside it) from outside, in call order."""
    seeds = bench_inputs.chaos_smoke(seed, 1.0)["seeds"][:2]
    sweeps: List[Tuple[str, int, float]] = []
    shrinks: List[Tuple[int, float]] = []
    sweep, shrink_case = chaos_runner.ChaosRunner.sweep, chaos_runner.ChaosRunner.shrink_case

    def timed_sweep(self: Any, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        result = sweep(self, *args, **kwargs)
        sweeps.append((result.scenario, result.runs, time.perf_counter() - started))
        return result

    def timed_shrink(self: Any, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        case = shrink_case(self, *args, **kwargs)
        shrinks.append((case.shrink_evals, time.perf_counter() - started))
        return case

    chaos_runner.ChaosRunner.sweep = timed_sweep  # type: ignore[method-assign]
    chaos_runner.ChaosRunner.shrink_case = timed_shrink  # type: ignore[method-assign]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = chaos_runner.smoke(seeds)
    finally:
        chaos_runner.ChaosRunner.sweep = sweep  # type: ignore[method-assign]
        chaos_runner.ChaosRunner.shrink_case = shrink_case  # type: ignore[method-assign]
    scenarios = [scenario for scenario, _runs, _s in sweeps]
    if exit_code != 0 or scenarios != [expected for _c, expected in CHAOS_CONFIGS]:
        raise RuntimeError(
            f"smoke() exit {exit_code}, swept {scenarios}: the configuration "
            "table in bench.layers no longer matches repro.chaos.runner.smoke"
        )
    out = {
        f"chaos.{config}_ms_per_seed": seconds / runs * 1e3
        for (config, _expected), (_scenario, runs, seconds) in zip(CHAOS_CONFIGS, sweeps)
    }
    out["chaos.shrink_evals"] = float(sum(evals for evals, _s in shrinks))
    out["chaos.shrink_ms"] = sum(seconds for _e, seconds in shrinks) * 1e3
    return out


# ----------------------------------------------------------------------


def measure_all(seed: int) -> Dict[str, float]:
    """Every workload-independent per-layer metric, by name."""
    out = sim_layer(seed)
    rungs = rpc_rungs(seed, out["sim.sched_us_per_event"])
    plain_rpc_us = rungs.pop("_plain_rpc_us_per_call")
    out.update(rungs)
    out.update(workload_layer(seed))
    out.update(dynamo_layer(seed, plain_rpc_us))
    out.update(cart_layer(seed))
    out.update(cluster_layer(seed))
    out.update(protocol_probes(seed))
    out.update(chaos_layer(seed))
    return out
