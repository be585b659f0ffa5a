"""The mixed-consistency fabric end to end: guesses ack immediately,
strong ops wait for quorum order, partitions mint apologies, takeover is
fenced, and everything is seed-deterministic."""

from repro.core.operation import Operation
from repro.resources import FungiblePool
from repro.sim.scheduler import Simulator
from repro.txn import MixedTxnSystem, ResourceMachine


def _reserve(uniq):
    return Operation("RESERVE", {"category": "seats"}, uniquifier=uniq)


def _system(sim, capacity=2, **kwargs):
    system = MixedTxnSystem(
        sim, ResourceMachine({"seats": capacity}), **kwargs
    )
    system.start()
    return system


def test_weak_guess_acks_immediately_and_stabilizes_clean():
    sim = Simulator(seed=2)
    system = _system(sim, capacity=4)
    sim.run(until=1.0)
    ticket = system.submit("txn1", _reserve("a"))
    assert ticket.op_class == "weak"
    assert ticket.guess == {"ok": True}          # acked with zero waiting
    assert not ticket.stabilized
    sim.run(until=3.0)
    assert ticket.stabilized
    assert ticket.done.value == {"ok": True}     # the guess held
    counters = sim.metrics.counters()
    assert counters["txn.guesses"] == 1
    assert counters["txn.stabilized"] == 1
    assert counters.get("txn.reordered", 0) == 0
    assert counters.get("txn.apologies", 0) == 0
    assert system.converged()
    system.stop()


def test_strong_op_waits_for_quorum_commit():
    sim = Simulator(seed=2)
    system = _system(sim)
    sim.run(until=1.0)
    ticket = system.submit(
        "txn2",
        Operation("SET_CAPACITY", {"category": "seats", "value": 9},
                  uniquifier="cap"),
    )
    assert ticket.op_class == "strong"
    assert ticket.guess is None                  # no guess for strong ops
    sim.run(until=3.0)
    assert ticket.stabilized
    assert ticket.done.value == {"capacity": 9}
    for replica in system.replicas.values():
        assert ResourceMachine.capacity(replica.stable_state, "seats") == 9
    system.stop()


def test_partitioned_guess_reorders_into_apology():
    """The §5.7 arc: a minority-side replica guesses yes on the last
    seats, the majority sells them for real, and the heal turns the
    guess into a structured, pool-wired apology."""
    sim = Simulator(seed=5)
    fulfillment = FungiblePool("seats", 2)
    system = _system(sim, capacity=2, apology_pool=fulfillment)
    sim.run(until=1.0)
    system.network.partition([
        {"txn0", "txn1", "txn.monitor"}, {"txn2"},
    ])
    majority_a = system.submit("txn0", _reserve("a"))
    majority_b = system.submit("txn0", _reserve("b"))
    lonely = system.submit("txn2", _reserve("w"))
    assert lonely.guess == {"ok": True}          # honest-at-the-time
    fulfillment.allocate("w")                    # app acts on the guess
    sim.run(until=4.0)
    assert majority_a.stabilized and majority_b.stabilized
    assert not lonely.stabilized                 # minority cannot commit
    system.network.heal()
    sim.run(until=8.0)
    assert lonely.stabilized
    assert lonely.done.value == {"ok": False}    # the truth
    assert system.reordered_uniquifiers() == {"w"}
    assert system.apology_uniquifiers() == {"w"}
    assert system.book.entries[0].action == "release"
    assert fulfillment.holder_of("w") is None    # compensation executed
    counters = sim.metrics.counters()
    assert counters["txn.reordered"] == 1
    assert counters["txn.apologies"] == 1
    assert system.converged()
    assert all(not r.prefix_violation for r in system.replicas.values())
    system.stop()


def test_fenced_takeover_rejects_deposed_leader():
    """Partition the leader away from the monitor: the successor is
    promoted under a fresh epoch, serves strong ops, and the deposed
    leader's post-heal batches bounce off the fence."""
    sim = Simulator(seed=7)
    system = _system(sim, capacity=4)
    sim.run(until=1.0)
    assert system.serving == "txn0"
    first_epoch = system.epoch
    system.network.partition([
        {"txn0"}, {"txn1", "txn2", "txn.monitor"},
    ])
    stale = system.submit("txn0", _reserve("stale"))  # guessed on the
    assert stale.guess == {"ok": True}                # wrong side
    sim.run(until=4.0)
    assert system.serving == "txn1"
    assert system.epoch > first_epoch
    strong = system.submit(
        "txn1",
        Operation("SET_CAPACITY", {"category": "seats", "value": 6},
                  uniquifier="cap"),
    )
    sim.run(until=6.0)
    assert strong.stabilized                     # majority side still works
    system.network.heal()
    sim.run(until=12.0)
    assert not system.replicas["txn0"].leading   # stepped down
    # The deposed leader kept heartbeating: its first one after the heal
    # refutes the conviction, and the pardon lets it be watched afresh.
    assert sim.metrics.counter("failover.false_convictions").value == 1
    assert not system.detector.convicted("txn0")
    assert stale.stabilized                      # re-routed and committed
    assert system.converged()
    assert all(not r.prefix_violation for r in system.replicas.values())
    # A committed strong ack was never reordered.
    assert "cap" not in system.reordered_uniquifiers()
    system.stop()


def test_deposed_leader_batches_bounce_off_the_fence():
    """A *false* conviction: the leader keeps its quorum but loses the
    monitor. The promoted successor is alone and cannot sync; the old
    regime keeps committing. At heal the fence does its one job — the
    deposed regime's in-flight batches bounce, it steps down, and
    nothing it committed is lost."""
    sim = Simulator(seed=9)
    system = _system(sim, capacity=4)
    sim.run(until=1.0)
    system.network.partition([
        {"txn0", "txn2"}, {"txn1", "txn.monitor"},
    ])
    live = system.submit("txn0", _reserve("live"))
    sim.run(until=4.0)
    assert system.serving == "txn1"              # conviction happened...
    assert live.stabilized                       # ...but the old regime
    assert not system.replicas["txn1"]._synced   # still commits; the new
    system.network.heal()                        # one stalls, minority-side
    sim.run(until=10.0)
    assert not system.replicas["txn0"].leading
    assert system.replicas["txn1"]._synced
    assert system.converged()
    # The old regime's committed write survived the regime change.
    assert "live" not in system.reordered_uniquifiers()
    assert all(not r.prefix_violation for r in system.replicas.values())
    system.stop()


def test_stale_epoch_batch_is_rejected():
    """The fence itself: an ordering batch stamped with a deposed epoch
    bounces with a ``stale`` reply and is counted, whatever it carries."""
    sim = Simulator(seed=13)
    system = _system(sim)
    sim.run(until=1.0)
    replies = []

    def probe():
        reply = yield from system.replicas["txn2"].endpoint.call(
            "txn0", "TXN_ORDER",
            {"epoch": 0, "leader": "txn2", "base": 0, "prev_epoch": 0,
             "entries": [], "commit": 0},
        )
        replies.append(reply)

    sim.spawn(probe(), name="probe")
    sim.run(until=2.0)
    assert replies and replies[0]["stale"]
    assert replies[0]["epoch"] >= 1
    assert sim.metrics.counters()["txn.stale_batches_rejected"] == 1
    system.stop()


def _run_partition_story(seed):
    sim = Simulator(seed=seed)
    system = _system(sim, capacity=2)
    sim.run(until=1.0)
    system.network.partition([{"txn0", "txn1", "txn.monitor"}, {"txn2"}])
    system.submit("txn0", _reserve("a"))
    system.submit("txn0", _reserve("b"))
    system.submit("txn2", _reserve("w"))
    sim.run(until=4.0)
    system.network.heal()
    sim.run(until=8.0)
    system.stop()
    return sim.metrics.counters(), sim.now


def test_seed_identical_runs_are_bit_identical():
    """Determinism extends through the txn layer: same seed, same story,
    identical counters and end time."""
    one = _run_partition_story(11)
    two = _run_partition_story(11)
    assert one == two


def test_unmeasured_op_type_defaults_to_strong():
    sim = Simulator(seed=2)
    system = _system(sim)
    ticket_class = system.replicas["txn0"].op_class(
        Operation("MYSTERY", {"category": "seats"}, uniquifier="m")
    )
    assert ticket_class == "strong"
    system.stop()
