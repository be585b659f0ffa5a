"""Integration: the §2.1 retry/uniquifier discipline under sustained loss
— every request eventually succeeds and executes exactly once."""

import pytest

from repro.net import Endpoint, LinkConfig, Network
from repro.net.latency import ExponentialLatency
from repro.resilience import RetryPolicy
from repro.sim import AllOf, Simulator


def test_hundred_calls_under_heavy_loss_execute_exactly_once():
    sim = Simulator(seed=31)
    net = Network(
        sim,
        default_link=LinkConfig(
            latency=ExponentialLatency(floor=0.001, mean_extra=0.002),
            loss_probability=0.35,
            duplicate_probability=0.1,
        ),
    )
    server = Endpoint(net, "server", dedup=True)
    client = Endpoint(net, "client")
    server.start()
    client.start()
    executions = {}

    @server.on("work")
    def work(_ep, msg):
        uniq = msg.payload["uniquifier"]
        executions[uniq] = executions.get(uniq, 0) + 1
        return {"done": True}

    def one_call(i):
        result = yield from client.call(
            "server", "work", {"uniquifier": f"job-{i}"},
            policy=RetryPolicy(max_attempts=61, timeout=0.05),
        )
        return result["done"]

    def driver():
        procs = [sim.spawn(one_call(i)) for i in range(100)]
        results = yield AllOf(procs)
        return [results[p.done] for p in procs]

    results = sim.run_process(driver())
    assert results == [True] * 100
    # Loss + duplication forced retries, but dedup kept each job at one
    # execution.
    assert sim.metrics.counter("rpc.client.retries").value > 0
    assert all(count == 1 for count in executions.values())
    assert len(executions) == 100


def test_deduplication_absorbs_network_duplicates():
    """Even with duplicate_probability, a fire-once cast handler runs per
    delivered copy — but a dedup-protected request does not."""
    sim = Simulator(seed=5)
    net = Network(sim, default_link=LinkConfig(duplicate_probability=1.0))
    server = Endpoint(net, "server", dedup=True)
    client = Endpoint(net, "client")
    server.start()
    client.start()
    runs = []

    @server.on("work")
    def work(_ep, msg):
        runs.append(msg.payload["uniquifier"])
        return {}

    def call():
        yield from client.call("server", "work", {"uniquifier": "once"})

    sim.run_process(call())
    sim.run()
    assert runs.count("once") == 1
