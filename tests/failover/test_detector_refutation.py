"""Detector verdicts as refutable rumors: ``bind_view`` turns a
conviction into a local suspicion and a post-conviction heartbeat — the
contradiction — into an incarnation-advancing clearance. The wrong-guess
ledger (``failover.false_convictions``) bills each false takeover exactly
once, no matter how many heartbeats the 'corpse' sends afterwards."""

import pytest

from repro.cluster.gossip_membership import ALIVE, DEAD, SUSPECT, MembershipView
from repro.failover import FixedTimeoutDetector, heartbeats
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint
from repro.sim import Simulator


def make_watched_node(seed=0, timeout=1.0, suspicion_timeout=3.0):
    sim = Simulator(seed=seed)
    network = Network(sim, default_link=LinkConfig(latency=FixedLatency(0.001)))
    detector = FixedTimeoutDetector(sim, ["n1"], timeout=timeout)
    view = MembershipView("monitor", sim, suspicion_timeout=suspicion_timeout)
    view.seed(["monitor", "n1"])
    detector.bind_view(view)
    monitor = Endpoint(network, "monitor")
    monitor.register(
        "HEARTBEAT",
        lambda _ep, msg: (detector.heartbeat(msg.payload["node"]), {})[1],
    )
    monitor.start()
    monitor.spawn("poll", lambda: detector.poll_loop(poll_interval=0.1))
    node = Endpoint(network, "n1")
    node.start()
    node.spawn("heartbeat", lambda: heartbeats(node, "monitor"))
    return sim, network, detector, view


def test_conviction_becomes_suspicion_not_shared_truth():
    sim, network, detector, view = make_watched_node()
    sim.run(until=2.0)
    assert view.status_of("n1") == ALIVE
    network.partition([{"n1"}, {"monitor"}])  # alive, just unreachable
    sim.run(until=5.0)
    assert detector.convicted("n1")
    # The verdict landed in the local view as a refutable suspicion.
    assert view.status_of("n1") == SUSPECT


def test_post_conviction_heartbeat_clears_suspicion_via_incarnation():
    sim, network, detector, view = make_watched_node()
    sim.run(until=2.0)
    network.partition([{"n1"}, {"monitor"}])
    sim.run(until=5.0)
    assert view.status_of("n1") == SUSPECT
    inc_at_suspicion = view.incarnation_of("n1")
    network.heal()
    sim.run(until=6.0)
    # The corpse spoke: the contradiction cleared the suspicion by
    # advancing the member's incarnation past the accusation — the same
    # precedence a travelling refutation would have used.
    assert view.status_of("n1") == ALIVE
    assert view.incarnation_of("n1") > inc_at_suspicion
    # The stale suspicion timer fires inert: the verdict never hardens.
    sim.run(until=10.0)
    assert view.status_of("n1") == ALIVE


def test_false_convictions_increments_exactly_once():
    sim, network, detector, view = make_watched_node()
    sim.run(until=2.0)
    network.partition([{"n1"}, {"monitor"}])
    sim.run(until=5.0)
    assert detector.convicted("n1")
    network.heal()
    # Many heartbeats arrive after the conviction; only the first is the
    # contradiction — one wrong guess, one line in the ledger.
    sim.run(until=9.0)
    assert sim.metrics.counter("failover.false_convictions").value == 1
    assert view.status_of("n1") == ALIVE


def test_unrefuted_conviction_hardens_to_dead_in_the_view():
    sim, network, detector, view = make_watched_node(suspicion_timeout=1.5)
    sim.run(until=2.0)
    network.detach("n1")  # genuinely gone, never to speak again
    sim.run(until=8.0)
    assert detector.convicted("n1")
    assert view.status_of("n1") == DEAD
    assert not detector.was_contradicted("n1")
    assert (
        sim.metrics.counters().get("failover.false_convictions", 0) == 0
    )


def test_reconviction_after_pardon_bills_a_second_false_guess():
    """Each conviction/contradiction pair is its own wrong guess: pardon,
    convict again, contradict again — the ledger reads two."""
    sim, network, detector, view = make_watched_node()
    sim.run(until=2.0)
    network.partition([{"n1"}, {"monitor"}])
    sim.run(until=5.0)
    network.heal()
    sim.run(until=6.0)
    assert sim.metrics.counter("failover.false_convictions").value == 1
    detector.pardon("n1")
    network.partition([{"n1"}, {"monitor"}])
    sim.run(until=9.0)
    assert detector.convicted("n1")
    network.heal()
    sim.run(until=10.5)
    assert sim.metrics.counter("failover.false_convictions").value == 2
    assert view.status_of("n1") == ALIVE
