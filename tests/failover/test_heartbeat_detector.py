"""Heartbeats over the real fabric; detectors accruing suspicion from
observed gaps — including convicting a live-but-partitioned node and
recording the contradiction when it speaks again."""

import pytest

from repro.errors import SimulationError
from repro.failover import (
    FixedTimeoutDetector,
    PhiAccrualDetector,
    heartbeats,
)
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint
from repro.sim import Simulator


def make_fabric(seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, default_link=LinkConfig(latency=FixedLatency(0.001)))
    return sim, network


def wire_monitor(sim, network, detector, name="monitor"):
    """A monitor endpoint feeding ``detector``, with its poll loop."""
    monitor = Endpoint(network, name)
    monitor.register(
        "HEARTBEAT",
        lambda _ep, msg: (detector.heartbeat(msg.payload["node"]), {})[1],
    )
    monitor.start()
    monitor.spawn("poll", lambda: detector.poll_loop(poll_interval=0.1))
    return monitor


def heartbeating_node(network, name="n1"):
    node = Endpoint(network, name)
    node.start()
    node.spawn("heartbeat", lambda: heartbeats(node, "monitor"))
    return node


def test_emitter_casts_on_schedule():
    sim, network = make_fabric()
    seen = []
    monitor = Endpoint(network, "monitor")
    monitor.register(
        "HEARTBEAT", lambda _ep, msg: (seen.append(msg.payload), {})[1]
    )
    monitor.start()
    node = heartbeating_node(network)
    sim.run(until=1.3)
    node.end("heartbeat", "stopped")
    sim.run(until=3.0)
    assert [beat["seq"] for beat in seen] == [1, 2, 3, 4, 5]
    assert all(beat["node"] == "n1" for beat in seen)


def test_fixed_timeout_convicts_silent_node():
    sim, network = make_fabric()
    detector = FixedTimeoutDetector(sim, ["n1"], timeout=1.0)
    wire_monitor(sim, network, detector)
    heartbeating_node(network)
    sim.run(until=3.0)
    assert not detector.convicted("n1")
    network.detach("n1")  # crash: heartbeats stop arriving
    sim.run(until=6.0)
    assert detector.convicted("n1")
    # Convicted a bit over `timeout` after the last arrival.
    assert detector.conviction_time("n1") == pytest.approx(4.0, abs=0.2)
    assert not detector.was_contradicted("n1")


def test_conviction_of_live_node_is_contradicted_on_next_heartbeat():
    sim, network = make_fabric()
    detector = FixedTimeoutDetector(sim, ["n1"], timeout=1.0)
    wire_monitor(sim, network, detector)
    heartbeating_node(network)
    sim.run(until=2.0)
    network.partition([{"n1"}, {"monitor"}])  # alive, just unreachable
    sim.run(until=5.0)
    assert detector.convicted("n1")
    network.heal()
    sim.run(until=6.0)
    # The "corpse" spoke: the guess is recorded as wrong.
    assert detector.was_contradicted("n1")
    assert sim.metrics.counter("failover.false_convictions").value == 1
    # The conviction itself stays latched (the takeover already happened).
    assert detector.convicted("n1")


def test_pardon_allows_reconviction():
    sim, network = make_fabric()
    detector = FixedTimeoutDetector(sim, ["n1"], timeout=0.5)
    wire_monitor(sim, network, detector)
    sim.run(until=1.0)
    assert detector.convicted("n1")  # never heard from at all
    detector.pardon("n1")
    assert not detector.convicted("n1")
    detector.heartbeat("n1")
    sim.run(until=1.2)
    assert not detector.convicted("n1")
    sim.run(until=2.0)
    assert detector.convicted("n1")  # silent again


def test_observers_fire_on_convict_and_contradiction():
    sim, network = make_fabric()
    detector = FixedTimeoutDetector(sim, ["n1"], timeout=0.5)
    events = []
    detector.on_convict(lambda node, at: events.append(("convict", node, at)))
    detector.on_contradiction(lambda node, at: events.append(("contra", node, at)))
    wire_monitor(sim, network, detector)
    sim.run(until=1.0)
    detector.heartbeat("n1")
    assert [e[0] for e in events] == ["convict", "contra"]
    assert all(e[1] == "n1" for e in events)


def test_phi_accrual_tracks_interarrival_distribution():
    sim, _network = make_fabric()
    detector = PhiAccrualDetector(sim, ["n1"])
    # Regular 0.2s heartbeats delivered by hand (no fabric needed).
    for i in range(1, 11):
        sim.schedule_at(0.2 * i, detector.heartbeat, "n1")
    sim.run(until=2.0)
    # Right after an arrival, suspicion is tiny; after a long silence it
    # crosses the conviction line.
    assert detector.suspicion("n1") < 0.5
    sim.run(until=2.1)
    assert detector.suspicion("n1") < 1.0
    sim.run(until=4.0)
    assert detector.suspicion("n1") >= 1.0


def test_phi_accrual_bootstraps_like_fixed_timeout():
    sim, network = make_fabric()
    detector = PhiAccrualDetector(sim, ["n1"])
    wire_monitor(sim, network, detector)
    # One sample is below min_samples: the fixed rule applies.
    detector.heartbeat("n1")
    sim.run(until=2.0)
    assert detector.convicted("n1")


def test_detector_is_deterministic():
    def run_once():
        sim, network = make_fabric(seed=11)
        detector = PhiAccrualDetector(sim, ["n1"])
        wire_monitor(sim, network, detector)
        heartbeating_node(network)
        sim.run(until=4.0)
        network.detach("n1")
        sim.run(until=10.0)
        return detector.conviction_time("n1"), sim.metrics.counters()

    assert run_once() == run_once()


def test_bad_parameters_rejected():
    sim, _network = make_fabric()
    with pytest.raises(SimulationError):
        FixedTimeoutDetector(sim, ["n1"], timeout=0.0)
    detector = FixedTimeoutDetector(sim, ["n1"])
    with pytest.raises(SimulationError):
        detector.poll_loop(poll_interval=0.0)
