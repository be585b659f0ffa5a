"""Property-based: site-aware routing picks the right latency model,
unknown sites are errors, and a single-site topology is bit-identical
to the flat fabric.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net import (
    FixedLatency,
    LinkConfig,
    Message,
    NetFault,
    Network,
    Site,
    Topology,
    TopologyNetwork,
    WanLink,
)
from repro.sim import Simulator

import pytest


def two_site_net(seed=0, lan=0.001, wan=0.5, bandwidth=None):
    sim = Simulator(seed=seed)
    topology = Topology(
        [Site("a", lan=FixedLatency(lan)), Site("b", lan=FixedLatency(lan))],
        default_wan=WanLink(FixedLatency(wan), bandwidth=bandwidth),
    )
    net = TopologyNetwork(
        sim, topology, default_link=LinkConfig(latency=FixedLatency(lan))
    )
    return sim, topology, net


def deliver_one(sim, net, src, dst):
    """Send one message and return its transit time."""
    start = sim.now
    net.send(Message(src, dst, "ping"))
    sim.run()
    return sim.now - start


@given(
    lan=st.floats(min_value=1e-4, max_value=0.01),
    wan=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_intra_site_uses_lan_cross_site_uses_wan(lan, wan):
    sim, topology, net = two_site_net(lan=lan, wan=wan)
    for name in ("a1", "a2", "b1"):
        net.attach(name)
    topology.place_all(("a1", "a2"), "a")
    topology.place("b1", "b")
    assert deliver_one(sim, net, "a1", "a2") == pytest.approx(lan)
    assert deliver_one(sim, net, "a1", "b1") == pytest.approx(wan)
    assert deliver_one(sim, net, "b1", "a1") == pytest.approx(wan)


def test_unknown_site_names_raise():
    _sim, topology, _net = two_site_net()
    with pytest.raises(SimulationError):
        topology.place("x", "nowhere")
    with pytest.raises(SimulationError):
        topology.wan("nowhere", "b")
    # A SiteFault naming an unknown site is rejected too.
    from repro.net import SiteFault

    with pytest.raises(SimulationError):
        SiteFault(loss_probability=1.0, topology=topology, src_site="nowhere")


@given(
    seed=st.integers(min_value=0, max_value=1000),
    sends=st.lists(
        st.tuples(
            st.sampled_from(["p1", "p2", "p3"]),
            st.sampled_from(["p1", "p2", "p3"]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=30, deadline=None)
def test_single_site_topology_bit_identical_to_flat_network(seed, sends):
    """One site with no LAN override must fall through to the flat link
    config, drawing the *same* RNG samples in the same order: identical
    delivery schedule, identical trace, identical counters."""

    def run(make_net):
        sim = Simulator(seed=seed)
        net = make_net(sim)
        for name in ("p1", "p2", "p3"):
            net.attach(name)
        for src, dst, at in sends:
            sim.schedule_at(at, net.send, Message(src, dst, "ping"))
        sim.run()
        trace = "\n".join(repr(r) for r in sim.trace.records)
        return sim.now, trace, sim.metrics.counters()

    link = LinkConfig(latency=FixedLatency(0.01), loss_probability=0.1)

    def flat(sim):
        net = Network(sim, default_link=link)
        net.inject_fault(NetFault(duplicate_probability=0.1))
        return net

    def single_site(sim):
        topology = Topology([Site("solo")])  # lan=None: flat fall-through
        net = TopologyNetwork(sim, topology, default_link=link)
        net.inject_fault(NetFault(duplicate_probability=0.1))
        topology.place_all(("p1", "p2", "p3"), "solo")
        return net

    flat_result = run(flat)
    topo_result = run(single_site)
    assert flat_result == topo_result


def test_wan_bandwidth_queues_fifo():
    """A bandwidth-capped pipe serializes cross-site sends: the k-th
    message queues behind k-1 transmissions."""
    sim, topology, net = two_site_net(wan=0.5, bandwidth=10.0)
    net.attach("a1"), net.attach("b1")
    topology.place("a1", "a")
    topology.place("b1", "b")
    box = net.mailbox("b1")
    for _ in range(5):
        net.send(Message("a1", "b1", "ping"))
    sim.run()
    # transmit = 1/10 s each; message k departs after k transmissions.
    assert sim.now == pytest.approx(0.5 + 5 * 0.1)
    assert len(box) == 5
    assert sim.metrics.counter("net.wan_msgs").value == 5
