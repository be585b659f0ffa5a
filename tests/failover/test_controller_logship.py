"""The failover stack on the log-shipping pair: conviction drives a
fenced promotion, the god-mode path survives unchanged, and the fenced
vs unfenced difference is visible at the replica state level."""

import pytest

from repro.errors import StaleEpochError
from repro.failover import FailoverController, FixedTimeoutDetector
from repro.logship import LogShippingSystem, ShipMode
from repro.net import Network
from repro.net.latency import FixedLatency
from repro.sim import Simulator


def build(fenced=True, seed=0):
    sim = Simulator(seed=seed)
    system = LogShippingSystem(
        ShipMode.ASYNC,
        ship_interval=0.05,
        wan_latency=FixedLatency(0.01),
        sim=sim,
    )
    failover = system.start_failover(
        fenced=fenced,
        detector=FixedTimeoutDetector(sim, [system.serving], timeout=1.0),
        poll_interval=0.1,
    )
    return sim, system, failover


def cut(system):
    """Partition the serving site away from backup + clients + monitor —
    without killing it."""
    system.network.partition(
        [{"east"}, {"west", "lsclient", "failover.monitor"}]
    )


def test_generic_controller_promotes_on_primary_conviction():
    sim = Simulator(seed=0)
    detector = FixedTimeoutDetector(sim, ["a"], timeout=0.5)
    promoted = []
    controller = FailoverController(
        Network(sim),
        detector,
        "monitor",
        primary_of=lambda: "a",
        successor_of=lambda node: "b",
        promote=lambda node, epoch: promoted.append((node, epoch)),
    )
    controller.start(poll_interval=0.1)
    sim.run(until=1.0)
    controller.stop()
    assert promoted == [("b", 1)]
    assert controller.takeovers == 1
    assert sim.metrics.counter("failover.auto_takeovers").value == 1


def test_generic_controller_ignores_nonprimary_convictions():
    sim = Simulator(seed=0)
    detector = FixedTimeoutDetector(sim, ["b"], timeout=0.5)
    promoted = []
    controller = FailoverController(
        Network(sim),
        detector,
        "monitor",
        primary_of=lambda: "a",          # the convicted node is NOT primary
        successor_of=lambda node: "b",
        promote=lambda node, epoch: promoted.append(node),
    )
    controller.start(poll_interval=0.1)
    sim.run(until=1.0)
    controller.stop()
    assert promoted == []
    assert sim.metrics.counter("failover.nonprimary_convictions").value == 1


def test_auto_takeover_on_partitioned_primary():
    sim, system, failover = build(fenced=True)
    sim.spawn(system.submit({"k": 1}))
    sim.run(until=2.0)
    assert system.serving == "east"
    assert system.epoch == 1            # the incumbent's regime is epoch 1

    cut(system)
    sim.run(until=6.0)
    failover.stop()
    assert failover.detector.convicted("east")
    assert system.serving == "west"
    assert system.epoch == 2
    assert system.sites["west"].epoch == 2
    assert system.sites["west"].fenced_below == 2
    assert sim.metrics.counter("failover.auto_takeovers").value == 1
    assert sim.metrics.counter("logship.takeovers").value == 1
    # The primary was alive: in doubt, not lost.
    assert sim.metrics.counter("logship.lost_commits").value == 0


def test_fenced_takeover_bounces_the_deposed_tail():
    sim, system, failover = build(fenced=True)
    sim.spawn(system.submit({"k": 1}))
    sim.run(until=2.0)
    cut(system)
    # A client that still believes in east gets its write acked there.
    sim.spawn(system.submit_to("east", {"k": "stale"}))
    sim.run(until=6.0)
    assert system.serving == "west"

    system.network.heal()
    sim.run(until=14.0)                 # let the SHIP retry land and bounce
    failover.stop()
    assert sim.metrics.counter("logship.stale_epoch_rejected").value >= 1
    assert system.sites["east"].deposed
    assert "txn-2" not in system.sites["west"].applied_txns
    assert system.sites["west"].state.get("k") == 1
    # The post-heal heartbeat proves the conviction was a wrong guess.
    assert sim.metrics.counter("failover.false_convictions").value == 1


def test_unfenced_takeover_lets_the_resurrection_through():
    sim, system, failover = build(fenced=False)
    sim.spawn(system.submit({"k": 1}))
    sim.run(until=2.0)
    cut(system)
    sim.spawn(system.submit_to("east", {"k": "stale"}))
    sim.run(until=6.0)
    assert system.serving == "west"
    assert system.sites["west"].fenced_below == 0   # no protection taken

    system.network.heal()
    sim.run(until=14.0)
    failover.stop()
    # The deposed regime's tail ships straight in: the §5.1 hazard.
    assert "txn-2" in system.sites["west"].applied_txns
    assert system.sites["west"].state.get("k") == "stale"
    assert sim.metrics.counter("logship.stale_epoch_rejected").value == 0


def test_fenced_deposed_primary_rejects_new_commits():
    sim, system, failover = build(fenced=True)
    sim.run(until=2.0)
    cut(system)
    # A stale write gives east an unshipped tail; after the heal its
    # SHIP attempt bounces off the fence, which is how east learns.
    sim.spawn(system.submit_to("east", {"k": "stale"}))
    sim.run(until=6.0)
    system.network.heal()
    sim.run(until=14.0)                 # the SHIP bounce fences east
    failover.stop()
    assert system.sites["east"].deposed
    with pytest.raises(StaleEpochError):
        sim.run_process(
            system.submit_to("east", {"k": "late"}), until=20.0
        )


def test_god_mode_fail_over_path_unchanged():
    system = LogShippingSystem(
        ShipMode.ASYNC, ship_interval=10.0, wan_latency=FixedLatency(0.01)
    )
    sim = system.sim
    for i in range(3):
        sim.spawn(system.submit({f"k{i}": i}))
    sim.run(until=1.0)
    result = system.fail_over()
    assert result["new_primary"] == "west"
    assert system.sites["east"].crashed
    # Nothing shipped (huge interval): the whole tail is lost, and the
    # historic metric names still carry the accounting.
    assert len(result["lost_txns"]) == 3
    assert sim.metrics.counter("logship.takeovers").value == 1
    assert sim.metrics.counter("logship.lost_commits").value == 3
    assert sim.metrics.counter("logship.in_doubt_commits").value == 0


def test_take_over_of_live_primary_counts_in_doubt_not_lost():
    system = LogShippingSystem(
        ShipMode.ASYNC, ship_interval=10.0, wan_latency=FixedLatency(0.01)
    )
    sim = system.sim
    for i in range(3):
        sim.spawn(system.submit({f"k{i}": i}))
    sim.run(until=1.0)
    result = system.take_over(fenced=True)
    assert result["new_primary"] == "west"
    assert not system.sites["east"].crashed
    assert len(result["lost_txns"]) == 3
    assert sim.metrics.counter("logship.in_doubt_commits").value == 3
    assert sim.metrics.counter("logship.lost_commits").value == 0


def test_stack_is_deterministic():
    def run_once():
        sim, system, failover = build(fenced=True, seed=7)
        sim.spawn(system.submit({"k": 1}))
        sim.run(until=2.0)
        cut(system)
        sim.run(until=6.0)
        system.network.heal()
        sim.run(until=14.0)
        failover.stop()
        return system.serving, system.epoch, sim.metrics.counters()

    assert run_once() == run_once()
