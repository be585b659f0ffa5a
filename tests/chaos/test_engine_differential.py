"""Episodes that lower themselves schedule exactly what the engine and its
two adapter modules used to.

Every case builds two identical worlds — endpoints on a flat or a
three-site network, idempotent crash targets, two disks — installs one
plan through the frozen :mod:`tests.chaos.reference_engine` on one and
through :class:`repro.chaos.engine.ChaosEngine` on the other, and
compares first the scheduler queue the install left behind (time,
sequence number, callable, arguments), then, with seeded message and
disk traffic running under the faults, the whole trace, every counter,
the clock and the kernel step count after ``run()`` + ``restore()``.
"""

import random
from dataclasses import replace

import pytest

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.harness import Crashable
from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    CrashEpisode,
    DiskFaultEpisode,
    LinkFaultEpisode,
    PartitionEpisode,
    WanCutEpisode,
)
from repro.errors import CrashedError, SimulationError
from repro.net import (
    FixedLatency,
    Message,
    NetFault,
    Network,
    Site,
    Topology,
    TopologyNetwork,
    WanLink,
)
from repro.sim import Simulator, Timeout
from repro.storage.disk import Disk

from tests.chaos import reference_engine

NODES = tuple(f"n{i}" for i in range(6))
DISKS = ("d0", "d1")
SITES = ("dc-a", "dc-b", "dc-c")
HORIZON = 20.0
PLANS = 240


class World:
    """One simulator with everything a plan may act on."""

    def __init__(self, seed, topology, network=True):
        sim = self.sim = Simulator(seed=seed)
        if not network:
            self.network = None
        elif topology:
            layout = Topology(
                [Site(name) for name in SITES],
                default_wan=WanLink(FixedLatency(0.02)),
            )
            self.network = TopologyNetwork(sim, layout)
            for index, name in enumerate(NODES):
                layout.place(name, SITES[index % len(SITES)])
        else:
            self.network = Network(sim)
        if network:
            for name in NODES:
                self.network.attach(name)
        self.disks = {name: Disk(sim, name=name) for name in DISKS}
        self.nodes = {name: self._target(name) for name in NODES}
        self.targets = ChaosTargets(
            sim, network=self.network, nodes=self.nodes, disks=self.disks
        )

    def _target(self, name):
        sim, network = self.sim, self.network

        def crash(cause):
            if network is not None:
                network.detach(name)
            sim.trace.emit(name, "test.crash", cause=cause)

        def restart():
            if network is not None:
                network.attach(name)
            sim.trace.emit(name, "test.restart")

        return Crashable(crash, restart)

    def start_traffic(self):
        """Messages between seeded pairs and writes to both disks, so
        that which faults are in force when shows up in the counters
        (drops, duplicates, WAN hops), in the clock (slow disks) and in
        the step count."""
        sim, network = self.sim, self.network

        def chatter():
            rng = sim.rng.stream("test.chatter")
            while sim.now < HORIZON:
                yield Timeout(rng.uniform(0.02, 0.08))
                src, dst = rng.sample(NODES, 2)
                network.send(Message(src, dst, "PING"))

        def writer(disk):
            block = 0
            while sim.now < HORIZON:
                yield Timeout(0.25)
                block += 1
                try:
                    yield from disk.write(block, block)
                except CrashedError:
                    sim.metrics.inc(f"test.{disk.name}.write_failed")

        sim.spawn(chatter(), name="test.chatter")
        for disk in self.disks.values():
            sim.spawn(writer(disk), name=f"test.writer.{disk.name}")

    # -- what the comparison reads ---------------------------------------

    def queue(self):
        """The pending calls in the order the kernel will run them, each
        as (time, sequence number, callable name, arguments) with the
        things that may differ between the engines normalised away: whose
        method it is (``injector.crash("n0", cause)`` and
        ``target.crash(cause)`` both read ``crash n0 cause``), a leading
        underscore, and the network argument of cut/heal."""
        sim = self.sim
        pending = [(sim.now, seq, fn, args) for seq, fn, args in sim._lane]
        # Heap entries are [when, seq, fn, args]; a cancelled one (fn None)
        # will never run.
        pending += [tuple(entry) for entry in sim._heap if entry[2] is not None]
        tokens = {}  # fault identity -> order of first appearance
        rendered = []
        for when, seq, fn, args in sorted(pending, key=lambda entry: entry[:2]):
            call = [fn.__name__.lstrip("_")]
            owner = getattr(fn, "__self__", None)
            for name, target in (*self.nodes.items(), *self.disks.items()):
                if owner is target:
                    call.append(name)
            for arg in args:
                if isinstance(arg, Network):
                    continue
                if isinstance(arg, reference_engine.PartitionWindow):
                    arg = arg.groups
                elif isinstance(arg, NetFault):
                    # Inject and clear must be handed the same token:
                    # clearing a SiteFault goes by identity.
                    token = tokens.setdefault(id(arg), len(tokens))
                    arg = (token, type(arg).__name__, *sorted(
                        (key, value) for key, value in vars(arg).items()
                        if key != "topology"
                    ))
                call.append(arg)
            rendered.append((when, seq, *call))
        return rendered

    def outcome(self):
        sim = self.sim
        return {
            "trace": [
                (record.time, record.actor, record.kind, dict(record.payload))
                for record in sim.trace.records
            ],
            "counters": sim.metrics.counters(),
            "steps": sim.steps,
            "now": sim.now,
        }


def _play(engine_class, seed, topology, plan):
    world = World(seed, topology)
    engine = engine_class(world.targets)
    engine.install(plan)
    queue = world.queue()
    world.start_traffic()
    world.sim.run(until=HORIZON)
    engine.restore()
    world.sim.run()
    return queue, world.outcome()


# ----------------------------------------------------------------------
# Generated plans


def _plan(seed, topology):
    """A plan sampled from a :class:`ChaosSpec` with every kind switched
    on, then bent towards the cases sampling alone rarely or never hits:
    disks that are never repaired, episodes of every kind sharing one
    instant, two partitions sharing a boundary, an action due at time
    zero, and plan order that is not time order."""
    spec = ChaosSpec(
        nodes=NODES, disks=DISKS, horizon=HORIZON,
        site_pairs=(("dc-a", "dc-b"), ("dc-a", "dc-c"), ("dc-b", "dc-c"))
        if topology else (),
        max_wan_cuts=2,
        max_crashes=3, max_partitions=2, max_link_faults=2, max_disk_faults=2,
        min_episode=0.5, max_episode=5.0,
    )
    episodes = list(spec.sample(seed).episodes)
    if seed % 4 != 1:  # degraded WAN links as well as cut ones
        episodes = [replace(e, loss=0.6) if isinstance(e, WanCutEpisode) else e
                    for e in episodes]
    rng = random.Random(f"differential:{seed}")
    if seed % 4 == 0:
        episodes = [
            replace(e, repair_at=None) if isinstance(e, DiskFaultEpisode) else e
            for e in episodes
        ]
    partitions = [e for e in episodes if isinstance(e, PartitionEpisode)]
    if seed % 3 == 0 and partitions:
        first = min(partitions, key=lambda e: e.start)
        last = max(partitions, key=lambda e: e.start)
        start, end = first.start, first.end
        episodes += [
            CrashEpisode(rng.choice(NODES), start, end),
            CrashEpisode(rng.choice(NODES), end),  # stays down
            LinkFaultEpisode(start, end, duplicate=0.2),
            DiskFaultEpisode(rng.choice(DISKS), start, end, slow_factor=3.0),
            DiskFaultEpisode(rng.choice(DISKS), end),
            # groups listed out of order: the cut record sorts them
            PartitionEpisode(last.end, last.end + 0.75, (NODES[:0:-1], NODES[:1])),
        ]
        if topology:
            episodes.append(WanCutEpisode(start, end, "dc-a", "dc-c"))
    if seed % 5 == 0:
        episodes.append(LinkFaultEpisode(0.0, 1.5, loss=0.4))
        episodes.append(CrashEpisode(NODES[seed % len(NODES)], 0.0, 0.5))
    if seed % 2 == 0:
        rng.shuffle(episodes)
    return ChaosPlan(tuple(episodes))


CASES = [(seed, bool(seed % 2)) for seed in range(PLANS)]


@pytest.mark.parametrize("seed,topology", CASES)
def test_both_engines_schedule_and_run_the_same(seed, topology):
    plan = _plan(seed, topology)
    expected_queue, expected = _play(
        reference_engine.ChaosEngine, seed, topology, plan
    )
    queue, outcome = _play(ChaosEngine, seed, topology, plan)
    assert queue == expected_queue
    assert outcome == expected


def test_the_generator_reaches_every_case_it_claims():
    """Otherwise the 240 comparisons above could agree vacuously."""
    plans = [(_plan(seed, topology), topology) for seed, topology in CASES]
    for kind in ("crash", "partition", "link_fault", "wan_cut", "disk_fault"):
        assert sum(1 for plan, _ in plans if plan.of(kind)) >= 40, kind
    assert not any(plan.of("wan_cut") for plan, topology in plans if not topology)

    def some(predicate, at_least=10):
        return sum(1 for plan, _ in plans if predicate(plan)) >= at_least

    assert some(lambda p: any(e.back_at is None for e in p.of("crash")))
    assert some(lambda p: any(e.repair_at is None for e in p.of("disk_fault")))
    assert some(lambda p: any(e.slow_factor for e in p.of("disk_fault")))
    assert some(lambda p: any(e.loss < 1.0 for e in p.of("wan_cut")))
    assert some(lambda p: any(e.start == 0.0 for e in p.episodes))
    # Same instant: some time is named by at least four episodes.
    assert some(lambda p: any(
        sum(1 for e in p.episodes if t in (e.start, e.end)) >= 4
        for t in {e.start for e in p.episodes}
    ))
    # A shared partition boundary, and partitions out of time order.
    assert some(lambda p: any(
        a.end == b.start for a in p.of("partition") for b in p.of("partition")
    ))
    assert some(lambda p: [e.start for e in p.of("partition")]
                != sorted(e.start for e in p.of("partition")))
    # The traffic feels the faults: something was dropped by an overlay,
    # something crossed the WAN, some disk write failed.
    totals = {}
    for seed, topology in CASES[:40]:
        _queue, outcome = _play(ChaosEngine, seed, topology, _plan(seed, topology))
        for name, value in outcome["counters"].items():
            totals[name] = totals.get(name, 0) + value
    for name in ("net.fault_dropped", "net.duplicated", "net.wan_msgs",
                 "net.dropped", "test.d0.write_failed", "test.d1.write_failed"):
        assert totals.get(name, 0) > 0, name


# ----------------------------------------------------------------------
# Plans that do not fit the targets

_VALID = (
    CrashEpisode("n0", 1.0, 2.0),
    DiskFaultEpisode("d0", 1.0, 2.0),
)

INVALID = {
    "unknown-node": (
        dict(topology=False),
        _VALID + (CrashEpisode("ghost", 1.0),),
        "plan crashes unknown node 'ghost'",
    ),
    "unknown-disk": (
        dict(topology=False),
        _VALID + (DiskFaultEpisode("ghost", 1.0),),
        "plan faults unknown disk 'ghost'",
    ),
    "unknown-site": (
        dict(topology=True),
        _VALID + (WanCutEpisode(1.0, 2.0, "dc-a", "dc-z"),),
        "plan cuts unknown site 'dc-z'",
    ),
    "partition-without-network": (
        dict(topology=False, network=False),
        _VALID + (PartitionEpisode(1.0, 2.0, (("n0",), ("n1",))),),
        "plan needs a network target",
    ),
    "link-fault-without-network": (
        dict(topology=False, network=False),
        _VALID + (LinkFaultEpisode(1.0, 2.0, loss=0.5),),
        "plan needs a network target",
    ),
    "wan-cut-without-topology": (
        dict(topology=False),
        _VALID + (WanCutEpisode(1.0, 2.0, "dc-a", "dc-b"),),
        "plan cuts WAN links but the network has no topology",
    ),
    "wan-cut-without-network": (
        dict(topology=False, network=False),
        _VALID + (WanCutEpisode(1.0, 2.0, "dc-a", "dc-b"),),
        "plan cuts WAN links but the network has no topology",
    ),
    # Two things wrong: both engines must complain about the same one.
    "unknown-disk-and-site": (
        dict(topology=True),
        (DiskFaultEpisode("ghost", 1.0), WanCutEpisode(1.0, 2.0, "dc-z", "dc-a")),
        "plan cuts unknown site 'dc-z'",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID))
@pytest.mark.parametrize(
    "engine_class", [reference_engine.ChaosEngine, ChaosEngine],
    ids=["reference", "production"],
)
def test_a_plan_that_does_not_fit_raises_and_schedules_nothing(case, engine_class):
    world_args, episodes, message = INVALID[case]
    world = World(0, **world_args)
    engine = engine_class(world.targets)
    with pytest.raises(SimulationError) as raised:
        engine.install(ChaosPlan(episodes))
    assert str(raised.value) == message
    assert world.queue() == []
    assert world.sim.pending_count == 0
    assert engine.installed is None
    assert world.sim.trace.count(kind="plan.installed") == 0
