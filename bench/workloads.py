"""The four workloads: build (set-up), run (timed), finish (checked).

Each class takes the data ``bench.inputs`` generated, builds the system
under test in ``__init__`` (that is set-up: it lands in ``setup_s``),
drives it in ``run()`` (the timed section, nothing else), and in
``finish()`` — untimed — verifies the outputs and fingerprints the
simulated outcome. The load is generated by this one process, one thread.

Why these four (see README for the long form):

- ``rpc_ladder`` uses only ``repro.sim``/``net``/``resilience``: protocol
  and application PRs must show *no change* here.
- ``zipf_ring_read`` is the Dynamo read path under skew; the CDF build and
  the preload are set-up, so work moved into set-up shows.
- ``cart_write_churn`` is the same Dynamo layer used for writes and
  repair instead of reads, plus ``repro.cart``.
- ``chaos_smoke`` is the gate CI and users actually run, and the only one
  touching ``chaos``/``failover``/``logship``/``storage``/``txn``/``bank``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import time
from array import array
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.cart.service import CartService
from repro.cart.strategies import OpCartStrategy
from repro.dynamo.cluster import DynamoCluster, QuorumUnavailable
from repro.dynamo.versions import VectorClock, VersionedValue
from repro.errors import BreakerOpenError, CrashedError, TimeoutError_
from repro.net.latency import UniformLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import AdmissionConfig, BreakerConfig, RetryPolicy
from repro.sim.events import AllOf, Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop

#: What a failed or refused client request looks like from outside.
OP_ERRORS = (QuorumUnavailable, TimeoutError_, RpcError, CrashedError,
             BreakerOpenError)

#: The resilient half of ``rpc_ladder``: five tries inside a two-second
#: budget. On a 1 %-loss link a call fails outright about once per 10^8.
RESILIENT_POLICY = RetryPolicy(
    max_attempts=5, timeout=0.05, backoff="exponential",
    base_delay=0.002, jitter=0.2, deadline=2.0,
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        return math.nan
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (rank - low) * (data[high] - data[low])


def _sim_fingerprint(sim: Simulator, contents: Any) -> Dict[str, Any]:
    """The simulated outcome a pure speed-up must leave untouched."""
    counters = sim.metrics.counters()
    blob = repr((sim.steps, sim.now, sorted(counters.items()), contents))
    return {
        "events": sim.steps,
        "sim_now": sim.now,
        "counters": counters,
        "sim_digest": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _store_contents(cluster: DynamoCluster) -> List[Any]:
    return [
        (name, sorted(
            (key, sorted((sorted(v.clock.counters.items()), repr(v.value))
                         for v in versions))
            for key, versions in node.store.items()
        ))
        for name, node in sorted(cluster.nodes.items())
    ]


def _drain(sim: Simulator, procs: Sequence[Any]) -> None:
    """Run the simulation dry; a load-generator process that died or
    hung must fail the lap loudly, not shorten it silently."""
    sim.run()
    for proc in procs:
        if not proc.done.triggered:
            raise RuntimeError(f"bench process {proc.name!r} never finished")
        if proc.done.exception is not None:
            raise proc.done.exception


def _latency_ms(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "sim_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_p99_ms": percentile(latencies, 99) * 1e3,
    }


# ----------------------------------------------------------------------


class RpcLadder:
    """Closed loop: 4 clients → 1 server, plain calls then the same
    number through policy + breaker + admission on a lossy link."""

    name = "rpc_ladder"

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs
        self.sim = sim = Simulator(seed=inputs["sim_seed"])
        latency = UniformLatency(0.0005, 0.0015)
        network = Network(sim, default_link=LinkConfig(latency=latency))

        def echo(_endpoint: Endpoint, msg: Any) -> Dict[str, Any]:
            return {"pong": msg.payload["n"]}

        server = Endpoint(network, "server")
        server.register("PING", echo)
        server.start()
        guarded = Endpoint(network, "guarded")
        guarded.use_admission(AdmissionConfig(max_inflight=64))
        guarded.register("PING", echo)
        guarded.start()
        lossy = LinkConfig(
            latency=latency, loss_probability=inputs["loss_probability"]
        )
        self.plain: List[Endpoint] = []
        self.resilient: List[Endpoint] = []
        for index in range(len(inputs["plain"])):
            endpoint = Endpoint(network, f"plain{index}")
            endpoint.start()
            self.plain.append(endpoint)
            endpoint = Endpoint(network, f"resilient{index}")
            endpoint.use_breaker(BreakerConfig())
            endpoint.start()
            network.set_link(endpoint.name, "guarded", lossy)
            self.resilient.append(endpoint)
        self.latencies = array("d")
        self.failed = 0
        self.wrong = 0
        self.phase_s: Dict[str, float] = {}

    def _client(
        self, endpoint: Endpoint, dst: str, script: List[int],
        policy: Optional[RetryPolicy],
    ) -> Generator[Any, Any, None]:
        sim = self.sim
        record = self.latencies.append
        for n in script:
            sent = sim.now
            try:
                reply = yield from endpoint.call(dst, "PING", {"n": n}, policy=policy)
            except OP_ERRORS:
                self.failed += 1
                continue
            if reply["pong"] != n:
                self.wrong += 1
            record(sim.now - sent)

    def run_phase(self, phase: str) -> None:
        """One half of the ladder (the layer rungs time these apart)."""
        clients, dst, policy = {
            "plain": (self.plain, "server", None),
            "resilient": (self.resilient, "guarded", RESILIENT_POLICY),
        }[phase]
        procs = [
            self.sim.spawn(
                self._client(endpoint, dst, script, policy),
                name=f"bench.{endpoint.name}",
            )
            for endpoint, script in zip(clients, self.inputs[phase])
        ]
        started = time.perf_counter()
        _drain(self.sim, procs)
        self.phase_s[phase] = time.perf_counter() - started

    def run(self) -> None:
        self.run_phase("plain")
        self.run_phase("resilient")

    def finish(self) -> Dict[str, Any]:
        attempted = sum(len(s) for s in self.inputs["plain"]) + sum(
            len(s) for s in self.inputs["resilient"]
        )
        answered = len(self.latencies)
        counters = self.sim.metrics.counters()
        retries = sum(
            value for name, value in counters.items()
            if name.startswith("rpc.resilient") and name.endswith(".retries")
        )
        out = _sim_fingerprint(self.sim, [answered, self.failed, self.wrong])
        out.update(_latency_ms(self.latencies))
        out.update(
            attempted=attempted,
            failed=self.failed,
            correct=self.wrong == 0 and answered + self.failed == attempted,
            check=f"{answered} echoes matched, {self.wrong} wrong",
            extras={
                "phase_s": self.phase_s,
                "retries": retries,
            },
        )
        return out


# ----------------------------------------------------------------------


class _TimedClient:
    """Records simulated latency around each Dynamo client call without
    touching the client: ``zipf_open_loop`` only ever calls get/put."""

    def __init__(self, client: Any, sim: Simulator, latencies: array) -> None:
        self._client = client
        self._sim = sim
        self._record = latencies.append

    def get(self, key: str) -> Generator[Any, Any, Any]:
        sent = self._sim.now
        result = yield from self._client.get(key)
        self._record(self._sim.now - sent)
        return result

    def put(self, key: str, value: Any, context: Any = None) -> Generator[Any, Any, Any]:
        sent = self._sim.now
        result = yield from self._client.put(key, value, context=context)
        self._record(self._sim.now - sent)
        return result


class ZipfRingRead:
    """Open loop in simulated time: Poisson arrivals, 95 % GET / 5 %
    read-modify-write PUT, zipf(0.99) over a million keys, 8-node ring."""

    name = "zipf_ring_read"

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs
        self.sim = sim = Simulator(seed=inputs["sim_seed"])
        self.cluster = cluster = DynamoCluster(
            num_nodes=8, n=3, r=2, w=2, sim=sim
        )
        self.client = cluster.client("zipf")
        self.keys = keys = ZipfKeyGenerator(
            random.Random(inputs["keys_seed"]),
            keyspace=inputs["keyspace"], theta=inputs["theta"],
        )
        clock = VectorClock({"loader": 1})
        for rank in range(inputs["preload_ranks"]):
            key = keys.key_for_rank(rank)
            for owner in cluster.ring.intended_owners(key, cluster.n):
                cluster.nodes[owner].store_version(key, VersionedValue(rank, clock))
        self.latencies = array("d")
        self.stats: Dict[str, int] = {}

    def run(self) -> None:
        inputs = self.inputs
        driver = self.sim.spawn(
            zipf_open_loop(
                self.sim, _TimedClient(self.client, self.sim, self.latencies),
                self.keys, rate=inputs["rate"],
                get_fraction=inputs["get_fraction"],
                count=inputs["requests"], stats=self.stats,
            ),
            name="bench.zipf",
        )
        _drain(self.sim, [driver])

    def finish(self) -> Dict[str, Any]:
        cluster, keys, stats = self.cluster, self.keys, self.stats
        out = _sim_fingerprint(self.sim, _store_contents(cluster))
        out.update(_latency_ms(self.latencies))
        failed = stats["failed_gets"] + stats["failed_puts"]
        # Every preloaded key still sits on all of its intended owners...
        missing = 0
        for rank in range(self.inputs["preload_ranks"]):
            key = keys.key_for_rank(rank)
            missing += sum(
                1 for owner in cluster.ring.intended_owners(key, cluster.n)
                if not cluster.nodes[owner].store.get(key)
            )

        # ...and a seeded sample reads back through a real quorum GET
        # (after the fingerprint: these reads move the simulator on).
        def readback() -> Generator[Any, Any, int]:
            unreadable = 0
            for rank in self.inputs["readback_ranks"]:
                try:
                    result = yield from self.client.get(keys.key_for_rank(rank))
                except OP_ERRORS:
                    unreadable += 1
                    continue
                if not result.siblings:
                    unreadable += 1
            return unreadable

        unreadable = self.sim.run_process(readback())
        out.update(
            attempted=stats["requests"],
            failed=failed,
            correct=missing == 0 and unreadable == 0
            and stats["requests"] == self.inputs["requests"],
            check=(f"{missing} preloaded replicas missing, "
                   f"{unreadable}/{len(self.inputs['readback_ranks'])} unreadable"),
            extras={"gets": stats["gets"], "puts": stats["puts"]},
        )
        return out


# ----------------------------------------------------------------------


def _reference_view(ops: List[Any]) -> Dict[str, int]:
    """The bench's own fold of acked cart ops (not the program's):
    ingress-time order, ADD accumulates, DELETE removes."""
    cart: Dict[str, int] = {}
    for op in sorted(ops, key=lambda op: (op.time, op.uniquifier)):
        if op.kind == "ADD":
            cart[op.item] = cart.get(op.item, 0) + op.quantity
        else:
            cart.pop(op.item, None)
    return {item: qty for item, qty in cart.items() if qty > 0}


class CartWriteChurn:
    """Closed loop: 4 shopper devices with 10 ms think time adding,
    deleting and viewing zipf-chosen carts on a 6-node ring while an
    operator script crashes, repairs, grows and shrinks the ring."""

    name = "cart_write_churn"

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs
        self.sim = sim = Simulator(seed=inputs["sim_seed"])
        self.cluster = cluster = DynamoCluster(num_nodes=inputs["nodes"], sim=sim)
        self.shoppers = [
            CartService(cluster, OpCartStrategy(),
                        client=cluster.client(f"device{index}"))
            for index in range(len(inputs["shoppers"]))
        ]
        self.latencies = array("d")
        self.acked: Dict[str, List[Any]] = {}
        self.tainted: set = set()  # carts with an op of unknown outcome
        self.failed = 0
        self.reshapes: Dict[str, Dict[str, int]] = {}

    def _shopper(self, cart: CartService, script: List[List[str]]) -> Generator[Any, Any, None]:
        sim = self.sim
        think = self.inputs["think_s"]
        record = self.latencies.append
        for kind, cart_key, item in script:
            sent = sim.now
            try:
                if kind == "add":
                    op = yield from cart.add(cart_key, item)
                    self.acked.setdefault(cart_key, []).append(op)
                elif kind == "delete":
                    op = yield from cart.delete(cart_key, item)
                    self.acked.setdefault(cart_key, []).append(op)
                else:
                    yield from cart.view(cart_key)
            except OP_ERRORS:
                self.failed += 1
                self.tainted.add(cart_key)
            else:
                record(sim.now - sent)
            yield Timeout(think)

    def _repair(self) -> Generator[Any, Any, None]:
        yield from self.cluster.run_handoff_round()
        yield from self.cluster.run_anti_entropy_round()

    def _operator(self, shoppers: List[Any]) -> Generator[Any, Any, None]:
        sim, cluster = self.sim, self.cluster
        script = [list(step) for step in self.inputs["faults"]]
        repair_every = self.inputs["repair_every_s"]
        next_repair = repair_every
        while not all(proc.done.triggered for proc in shoppers):
            due = script[0][0] if script else math.inf
            wake = min(due, next_repair)
            if wake > sim.now:
                yield Timeout(wake - sim.now)
            if script and script[0][0] <= sim.now:
                _when, action, node = script.pop(0)
                if action == "crash":
                    cluster.crash(node)
                elif action == "restart":
                    cluster.restart(node)
                elif action == "join":
                    self.reshapes["join"] = yield from cluster.join(node)
                else:
                    self.reshapes["decommission"] = (
                        yield from cluster.decommission(node)
                    )
            elif next_repair <= sim.now:
                yield from self._repair()
                next_repair = sim.now + repair_every
        # Quiesce: everything healed, repair until nothing moves.
        yield AllOf([proc.done for proc in shoppers])
        yield from self._repair()
        yield from self._repair()
        self.reshapes["final_merkle"] = yield from cluster.run_merkle_round()

    def run(self) -> None:
        procs = [
            self.sim.spawn(self._shopper(cart, script), name=f"bench.shopper{index}")
            for index, (cart, script) in enumerate(
                zip(self.shoppers, self.inputs["shoppers"]))
        ]
        operator = self.sim.spawn(self._operator(procs), name="bench.operator")
        _drain(self.sim, procs + [operator])

    def finish(self) -> Dict[str, Any]:
        cluster = self.cluster
        attempted = sum(len(script) for script in self.inputs["shoppers"])
        blob_sizes = [
            max((len(v.value) for v in versions), default=0)
            for node in cluster.nodes.values()
            for versions in node.store.values()
        ]
        out = _sim_fingerprint(self.sim, _store_contents(cluster))
        out.update(_latency_ms(self.latencies))
        unconverged = sum(
            1 for key in self.inputs["carts"]
            if key in self.acked and not cluster.converged_on(key)
        )
        viewer = self.shoppers[0]

        def views() -> Generator[Any, Any, int]:
            wrong = 0
            for key in sorted(self.acked):
                if key in self.tainted:
                    continue
                seen = yield from viewer.view(key)
                if seen != _reference_view(self.acked[key]):
                    wrong += 1
            return wrong

        wrong = self.sim.run_process(views())
        out.update(
            attempted=attempted,
            failed=self.failed,
            correct=wrong == 0 and unconverged == 0
            and len(self.reshapes) == 3,
            check=(f"{wrong} carts differ from the reference model, "
                   f"{unconverged} unconverged, of {len(self.acked)} written"),
            extras={
                "reshapes": self.reshapes,
                "blob_ops_p99": percentile(blob_sizes, 99),
                "blob_ops_max": max(blob_sizes, default=0),
            },
        )
        return out


# ----------------------------------------------------------------------


class ChaosSmoke:
    """``repro.chaos.runner.smoke(seeds)``, stdout captured: 14 policy
    configurations per seed, planted bugs found, shrunk and replayed.
    An op is one scenario run of a sweep."""

    name = "chaos_smoke"

    def __init__(self, inputs: Dict[str, Any]) -> None:
        from repro.chaos import runner  # importing the scenarios is set-up

        self.runner = runner
        self.seeds = list(inputs["seeds"])
        self.stdout = ""
        self.exit_code: Optional[int] = None

    def run(self) -> None:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            self.exit_code = self.runner.smoke(self.seeds)
        self.stdout = captured.getvalue()

    def finish(self) -> Dict[str, Any]:
        runs = sum(int(n) for n in re.findall(r"\bruns=(\d+)", self.stdout))
        fail_lines = [
            line for line in self.stdout.splitlines() if line.startswith("FAIL:")
        ]
        return {
            "attempted": runs,
            "failed": len(fail_lines),
            "correct": self.exit_code == 0 and not fail_lines,
            "check": f"smoke exit {self.exit_code}; " + ("; ".join(fail_lines) or "ok"),
            "sim_digest": hashlib.sha256(self.stdout.encode()).hexdigest(),
            "extras": {
                "seeds": self.seeds,
                "shrink_evals": sum(
                    int(n) for n in re.findall(r"\((\d+) evals\)", self.stdout)
                ),
            },
        }


WORKLOADS = {
    cls.name: cls for cls in (RpcLadder, ZipfRingRead, CartWriteChurn, ChaosSmoke)
}
