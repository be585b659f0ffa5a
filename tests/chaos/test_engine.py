"""ChaosEngine: scheduling what a plan's episodes lower themselves to."""

import pytest

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.plan import (
    ChaosPlan,
    CrashEpisode,
    DiskFaultEpisode,
    LinkFaultEpisode,
    PartitionEpisode,
    WanCutEpisode,
)
from repro.errors import SimulationError
from repro.net import Site, Topology, TopologyNetwork
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.storage.disk import Disk


class FakeNode:
    """Idempotent crash/restart target, like the scenario adapters."""

    def __init__(self):
        self.up = True
        self.events = []

    def crash(self, cause="injected"):
        if not self.up:
            return
        self.up = False
        self.events.append(("crash", cause))

    def restart(self):
        if self.up:
            return
        self.up = True
        self.events.append(("restart", None))


def make_world(num_nodes=2, with_disk=False):
    sim = Simulator(seed=1)
    network = Network(sim)
    for i in range(num_nodes):
        network.attach(f"n{i}")
    nodes = {f"n{i}": FakeNode() for i in range(num_nodes)}
    disks = {"d0": Disk(sim, name="d0")} if with_disk else {}
    targets = ChaosTargets(sim, network=network, nodes=nodes, disks=disks)
    return sim, network, nodes, disks, targets


def test_crash_episodes_drive_node_lifecycle():
    sim, _net, nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan((CrashEpisode("n0", 1.0, 3.0),)))
    sim.run(until=2.0)
    assert not nodes["n0"].up
    sim.run(until=4.0)
    assert nodes["n0"].up
    assert nodes["n0"].events == [("crash", "injected"), ("restart", None)]


def test_partition_episode_partitions_then_heals():
    sim, network, _nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    engine.install(
        ChaosPlan((PartitionEpisode(1.0, 3.0, (("n0",), ("n1",))),))
    )
    sim.run(until=2.0)
    assert not network.reachable("n0", "n1")
    sim.run(until=4.0)
    assert network.reachable("n0", "n1")


def test_link_fault_episode_injects_then_clears():
    sim, network, _nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan((LinkFaultEpisode(1.0, 3.0, loss=0.5),)))
    assert not network.active_faults
    sim.run(until=2.0)
    assert len(network.active_faults) == 1
    sim.run(until=4.0)
    assert not network.active_faults


def test_disk_fault_episode_hard_fail_and_repair():
    sim, _net, _nodes, disks, targets = make_world(with_disk=True)
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan((DiskFaultEpisode("d0", 1.0, 3.0),)))
    sim.run(until=2.0)
    assert disks["d0"].failed
    sim.run(until=4.0)
    assert not disks["d0"].failed


def test_disk_fault_episode_slowdown():
    sim, _net, _nodes, disks, targets = make_world(with_disk=True)
    engine = ChaosEngine(targets)
    engine.install(
        ChaosPlan((DiskFaultEpisode("d0", 1.0, 3.0, slow_factor=4.0),))
    )
    sim.run(until=2.0)
    assert disks["d0"].slow_factor == 4.0
    sim.run(until=4.0)
    assert disks["d0"].slow_factor == 1.0


def test_wan_cut_episode_cuts_both_directions_then_heals():
    """Two directional site faults, in force for the window — and, unlike
    a hand-called ``cut_sites``, no ``wan.cut`` trace record (the plan is
    already in the trace)."""
    sim = Simulator(seed=1)
    topology = Topology([Site("east"), Site("west")])
    network = TopologyNetwork(sim, topology)
    engine = ChaosEngine(ChaosTargets(sim, network=network))
    engine.install(ChaosPlan((WanCutEpisode(1.0, 3.0, "east", "west", loss=0.5),)))
    sim.run(until=2.0)
    assert [
        (f.src_site, f.dst_site, f.loss_probability) for f in network.active_faults
    ] == [("east", "west", 0.5), ("west", "east", 0.5)]
    sim.run(until=4.0)
    assert not network.active_faults
    assert sim.trace.count(kind="fault.inject") == 2
    assert sim.trace.count(kind="wan.cut") == 0


def test_same_instant_actions_run_kind_by_kind_in_catalogue_order():
    """The tie-break every pinned plan relies on: crashes, then
    partitions, then link faults, then disk faults — not plan order."""
    sim, _net, nodes, _disks, targets = make_world(with_disk=True)
    nodes["n0"].crash = lambda cause: sim.trace.emit("n0", "crash", cause=cause)
    ChaosEngine(targets).install(ChaosPlan((
        DiskFaultEpisode("d0", 1.0),
        LinkFaultEpisode(1.0, 3.0, loss=0.5),
        PartitionEpisode(1.0, 3.0, (("n0",), ("n1",))),
        CrashEpisode("n0", 1.0),
    )))
    sim.run(until=2.0)
    assert [r.kind for r in sim.trace.records if r.time == 1.0] == [
        "crash", "partition.cut", "fault.inject", "disk.fail",
    ]


def test_engine_validates_unknown_targets():
    sim, _net, _nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    with pytest.raises(SimulationError):
        engine.install(ChaosPlan((CrashEpisode("ghost", 1.0),)))
    with pytest.raises(SimulationError):
        engine.install(ChaosPlan((DiskFaultEpisode("ghost", 1.0),)))


def test_engine_requires_network_for_partitions():
    sim = Simulator(seed=1)
    engine = ChaosEngine(ChaosTargets(sim, nodes={"n0": FakeNode()}))
    with pytest.raises(SimulationError):
        engine.install(
            ChaosPlan((PartitionEpisode(1.0, 2.0, (("n0",), ("n1",))),))
        )


def test_engine_installs_only_once():
    sim, _net, _nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan())
    with pytest.raises(SimulationError):
        engine.install(ChaosPlan())


def test_restore_undoes_everything():
    sim, network, nodes, disks, targets = make_world(with_disk=True)
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan((
        CrashEpisode("n0", 1.0),  # stays down
        PartitionEpisode(1.0, 9.0, (("n0",), ("n1",))),
        LinkFaultEpisode(1.0, 9.0, loss=0.9),
        DiskFaultEpisode("d0", 1.0),  # stays broken
    )))
    sim.run(until=5.0)
    assert not nodes["n0"].up
    assert not network.reachable("n0", "n1")
    assert network.active_faults
    assert disks["d0"].failed

    engine.restore()
    assert nodes["n0"].up
    assert network.reachable("n0", "n1")
    assert not network.active_faults
    assert not disks["d0"].failed


def test_restore_is_idempotent_on_healthy_world():
    sim, _net, nodes, _disks, targets = make_world()
    engine = ChaosEngine(targets)
    engine.install(ChaosPlan())
    sim.run(until=1.0)
    engine.restore()
    engine.restore()
    assert all(node.up for node in nodes.values())
    # restart was never called on nodes that did not crash
    assert all(node.events == [] for node in nodes.values())
