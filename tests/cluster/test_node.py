"""Node crash/restart semantics."""

import pytest

from repro.errors import CrashedError, InterruptError
from repro.cluster import Node
from repro.net import Network
from repro.resilience import RetryPolicy
from repro.sim import Simulator, Timeout


def test_crash_interrupts_owned_processes():
    sim = Simulator()
    node = Node(sim, "n1")
    fates = []

    def worker():
        try:
            yield Timeout(100.0)
            fates.append("finished")
        except InterruptError:
            fates.append("interrupted")

    node.spawn(worker())
    sim.schedule(5.0, node.crash)
    sim.run()
    assert fates == ["interrupted"]
    assert not node.up
    assert node.crash_count == 1


def test_crash_hooks_run():
    sim = Simulator()
    node = Node(sim, "n1")
    calls = []
    node.on_crash(lambda: calls.append("crash"))
    node.on_restart(lambda: calls.append("restart"))
    node.crash()
    node.restart()
    assert calls == ["crash", "restart"]


def test_crash_idempotent():
    sim = Simulator()
    node = Node(sim, "n1")
    node.crash()
    node.crash()
    assert node.crash_count == 1


def test_restart_when_up_is_noop():
    sim = Simulator()
    node = Node(sim, "n1")
    calls = []
    node.on_restart(lambda: calls.append("restart"))
    node.restart()
    assert calls == []


def test_spawn_on_down_node_rejected():
    sim = Simulator()
    node = Node(sim, "n1")
    node.crash()

    def worker():
        yield Timeout(1.0)

    with pytest.raises(CrashedError):
        node.spawn(worker())


def test_endpoint_stops_and_restarts_with_node():
    sim = Simulator()
    net = Network(sim)
    node = Node(sim, "server")
    endpoint = node.attach_endpoint(net)

    @endpoint.on("ping")
    def ping(_ep, _msg):
        return {"pong": True}

    client = Node(sim, "client").attach_endpoint(net)

    def run():
        first = yield from client.call("server", "ping")
        node.crash()
        try:
            yield from client.call(
                "server", "ping", policy=RetryPolicy(max_attempts=2, timeout=0.3)
            )
            second = "answered"
        except Exception:
            second = "unreachable"
        node.restart()
        third = yield from client.call("server", "ping", policy=RetryPolicy(timeout=2.0))
        return (first["pong"], second, third["pong"])

    assert sim.run_process(run()) == (True, "unreachable", True)


def test_processes_list_cleared_on_crash():
    sim = Simulator()
    node = Node(sim, "n1")

    def worker():
        yield Timeout(100.0)

    node.spawn(worker())
    node.crash()
    node.restart()
    assert node._processes == []
