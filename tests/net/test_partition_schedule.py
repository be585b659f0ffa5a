"""Scheduled partition windows: a :class:`PartitionEpisode` lowered onto
``Network.partition``/``heal``.

What ``repro.net.partition`` (``PartitionWindow`` + ``PartitionSchedule``)
used to be tested for, now that the episode lowers itself: the ids are
kept so the behaviours visibly survived the module.
"""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.plan import ChaosPlan, PartitionEpisode
from repro.errors import SimulationError
from repro.net import Network
from repro.sim import Simulator


def make_network(*names):
    sim = Simulator()
    net = Network(sim)
    for name in names:
        net.attach(name)
    return sim, net


def install(sim, net, *windows):
    plan = ChaosPlan(tuple(PartitionEpisode(*window) for window in windows))
    ChaosEngine(ChaosTargets(sim, network=net)).install(plan)


def test_window_cut_and_heal():
    sim, net = make_network("a", "b")
    install(sim, net, (5.0, 10.0, [["a"], ["b"]]))
    sim.run(until=6.0)
    assert not net.reachable("a", "b")
    sim.run(until=11.0)
    assert net.reachable("a", "b")


def test_empty_window_rejected():
    with pytest.raises(SimulationError):
        PartitionEpisode(5.0, 5.0, [["a"]])


def test_overlapping_windows_rejected():
    sim, net = make_network()
    with pytest.raises(SimulationError):
        install(sim, net, (0.0, 10.0, [["a"]]), (5.0, 15.0, [["a"]]))


def test_back_to_back_windows_sharing_a_boundary():
    """end == start is not an overlap: the first heal and the second cut
    both land at t=10, and the second partition must win — whichever way
    round the plan lists them."""
    windows = [
        (5.0, 10.0, [["a"], ["b", "c"]]),
        (10.0, 15.0, [["a", "b"], ["c"]]),
    ]
    for plan_order in (windows, windows[::-1]):
        sim, net = make_network("a", "b", "c")
        install(sim, net, *plan_order)
        sim.run(until=7.0)
        assert not net.reachable("a", "b")
        assert net.reachable("b", "c")
        sim.run(until=12.0)  # past the shared boundary
        assert net.reachable("a", "b")
        assert not net.reachable("b", "c")
        sim.run(until=16.0)
        assert net.reachable("b", "c")
        assert not net.partitioned


def test_single_node_group_isolates_that_node():
    sim, net = make_network("a", "b", "c")
    install(sim, net, (1.0, 5.0, [["a"]]))
    sim.run(until=2.0)
    assert not net.reachable("a", "b")
    assert not net.reachable("a", "c")
    # the unlisted endpoints share the implicit remainder group
    assert net.reachable("b", "c")
    assert net.reachable("a", "a")
    sim.run(until=6.0)
    assert net.reachable("a", "b")


def test_touching_overlap_rejected_exactly_at_interior_point():
    sim, net = make_network()
    with pytest.raises(SimulationError):
        install(sim, net, (0.0, 10.0, [["a"]]), (9.999, 20.0, [["a"]]))


def test_unsorted_windows_are_validated_in_time_order():
    sim, net = make_network()
    with pytest.raises(SimulationError):
        install(sim, net, (10.0, 20.0, [["a"]]), (0.0, 15.0, [["a"]]))


def test_heal_is_traced():
    sim, net = make_network("a", "b")
    install(sim, net, (1.0, 2.0, [["b"], ["a"]]))
    sim.run(until=3.0)
    cut, = sim.trace.find(kind="partition.cut")
    assert (cut.time, cut.payload) == (1.0, {"groups": [["b"], ["a"]]})
    assert sim.trace.count(kind="partition.heal") == 1
