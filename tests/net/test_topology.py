"""Sites, WAN links, site-pair faults, and the bandwidth pipe."""

import pytest

from repro.errors import SimulationError
from repro.net import (
    FixedLatency,
    LinkConfig,
    Message,
    Site,
    SiteFault,
    Topology,
    TopologyNetwork,
    WanLink,
)
from repro.sim import Simulator


def build(seed=0, bandwidth=None, wan=0.1):
    sim = Simulator(seed=seed)
    lan = FixedLatency(0.001)
    topology = Topology(
        [Site("a", lan=lan), Site("b", lan=lan)],
        default_wan=WanLink(FixedLatency(wan), bandwidth=bandwidth),
    )
    net = TopologyNetwork(
        sim, topology, default_link=LinkConfig(latency=lan)
    )
    for name in ("a1", "a2", "b1"):
        net.attach(name)
    topology.place_all(("a1", "a2"), "a")
    topology.place("b1", "b")
    return sim, topology, net


def test_site_and_wanlink_validation():
    with pytest.raises(SimulationError):
        Site("")
    with pytest.raises(SimulationError):
        WanLink(FixedLatency(0.1), bandwidth=0.0)
    with pytest.raises(SimulationError):
        Topology([Site("a"), Site("a")])
    with pytest.raises(SimulationError):
        Topology([])
    topology = Topology([Site("a"), Site("b")])
    with pytest.raises(SimulationError):
        topology.wan("a", "b")  # no default link


def test_site_pairs_sorted_unordered():
    topology = Topology([Site(n) for n in ("c", "a", "b")])
    assert topology.site_pairs() == [("a", "b"), ("a", "c"), ("b", "c")]


def test_unplaced_endpoints_ride_the_flat_link():
    sim, _topology, net = build()
    net.attach("stranger")
    net.send(Message("stranger", "a1", "ping"))
    sim.run()
    assert sim.now == 0.001  # default link, no WAN charge
    assert "net.wan_msgs" not in sim.metrics.counters()


def test_cut_sites_drops_cross_site_only_and_heals():
    sim, _topology, net = build()
    boxes = {n: net.mailbox(n) for n in ("a2", "b1")}
    faults = net.cut_sites("a", "b")
    net.send(Message("a1", "a2", "lan"))
    net.send(Message("a1", "b1", "wan"))
    sim.run()
    assert len(boxes["a2"]) == 1
    assert len(boxes["b1"]) == 0
    net.heal_sites(faults)
    net.send(Message("a1", "b1", "wan"))
    sim.run()
    assert len(boxes["b1"]) == 1


def test_site_fault_wildcards():
    sim, topology, net = build()
    # src_site=None: everything INTO site b is cut, regardless of origin.
    fault = SiteFault(loss_probability=1.0, topology=topology, dst_site="b")
    net.inject_fault(fault)
    net.send(Message("a1", "b1", "in"))
    net.send(Message("b1", "a1", "out"))
    sim.run()
    assert len(net.mailbox("b1")) == 0
    assert len(net.mailbox("a1")) == 1


def test_site_faults_identity_equality():
    """Two identical cuts must be distinct fault tokens: clearing one
    must not clear the other."""
    sim, topology, net = build()
    f1 = SiteFault(loss_probability=1.0, topology=topology, dst_site="b")
    f2 = SiteFault(loss_probability=1.0, topology=topology, dst_site="b")
    assert f1 != f2
    net.inject_fault(f1)
    net.inject_fault(f2)
    net.clear_fault(f1)
    net.send(Message("a1", "b1", "ping"))
    sim.run()
    assert len(net.mailbox("b1")) == 0  # f2 still standing


def test_bandwidth_pipe_is_per_direction():
    sim, _topology, net = build(bandwidth=10.0, wan=0.5)
    for _ in range(3):
        net.send(Message("a1", "b1", "east-out"))
        net.send(Message("b1", "a1", "west-out"))
    sim.run()
    # Each direction has its own pipe: 3 transmissions of 0.1s, not 6.
    assert sim.now == pytest.approx(0.5 + 3 * 0.1)
    assert sim.metrics.counter("net.wan_msgs").value == 6


def test_wan_queue_wait_observed():
    sim, _topology, net = build(bandwidth=2.0, wan=0.1)
    net.send(Message("a1", "b1", "first"))
    net.send(Message("a1", "b1", "second"))
    sim.run()
    # Second message queued 0.5s behind the first transmission.
    hist = sim.metrics.histogram("net.wan_queue_wait")
    assert hist.count == 1
