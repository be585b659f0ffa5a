"""Gossip membership: the merge rule's algebra, refutation, suspicion
timers, delta budgets, and epidemic convergence over the real fabric —
including the gossip-to-the-dead heal after a symmetric partition."""

import itertools

import pytest

from repro.cluster.gossip_membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    MembershipGossip,
    MembershipView,
    rumor_wins,
    views_converged,
)
from repro.errors import SimulationError
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.sim import Simulator


def make_fabric(seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, default_link=LinkConfig(latency=FixedLatency(0.002)))
    return sim, network


def make_cluster(sim, network, names, period=0.25, fanout=2, timeout=1.0,
                 **kwargs):
    views, gossips = {}, {}
    for name in names:
        view = MembershipView(name, sim, suspicion_timeout=timeout)
        view.seed(names)
        views[name] = view
        gossips[name] = MembershipGossip(
            view, network=network, period=period, fanout=fanout, **kwargs
        )
    return views, gossips


# ----------------------------------------------------------------------
# The merge rule


def test_higher_incarnation_always_wins():
    assert rumor_wins(ALIVE, 2, DEAD, 1)       # even a graver held status
    assert rumor_wins(SUSPECT, 3, ALIVE, 2)
    assert not rumor_wins(DEAD, 1, ALIVE, 2)   # stale gravity loses


def test_equal_incarnation_graver_status_wins():
    assert rumor_wins(SUSPECT, 1, ALIVE, 1)
    assert rumor_wins(DEAD, 1, SUSPECT, 1)
    assert rumor_wins(LEFT, 1, DEAD, 1)        # left outranks even dead
    assert not rumor_wins(ALIVE, 1, SUSPECT, 1)
    assert not rumor_wins(ALIVE, 0, ALIVE, 0)  # identical rumor is a no-op


def test_unknown_status_is_rejected():
    with pytest.raises(SimulationError):
        rumor_wins("zombie", 1, ALIVE, 0)
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    with pytest.raises(SimulationError):
        view.apply("b", "zombie", 0)
    with pytest.raises(SimulationError):
        view.apply("b", ALIVE, -1)


def test_merge_is_order_independent_and_idempotent():
    """Any permutation of any rumor batch, applied any number of times,
    lands every view on the same entries — the property that lets rumors
    arrive late, twice, or out of order."""
    rumors = [
        ("b", ALIVE, 0), ("b", SUSPECT, 0), ("b", ALIVE, 1),
        ("c", DEAD, 2), ("c", ALIVE, 2), ("d", LEFT, 0), ("d", ALIVE, 0),
    ]
    outcomes = set()
    for perm in itertools.permutations(rumors):
        view = MembershipView("a", Simulator(seed=0))
        for rumor in perm:
            view.apply(*rumor)
        for rumor in perm:           # replay the whole batch: no change
            assert not view.apply(*rumor)
        outcomes.add(tuple(sorted(view.entries().items())))
    assert len(outcomes) == 1
    entries = dict(outcomes.pop())
    assert entries["b"] == (ALIVE, 1)     # the refreshed incarnation won
    assert entries["c"] == (DEAD, 2)      # graver status at equal inc
    assert entries["d"] == (LEFT, 0)      # left cannot be resurrected


def test_rumor_about_unknown_name_creates_the_entry():
    view = MembershipView("a", Simulator(seed=0))
    assert view.status_of("b") is None
    assert view.apply("b", ALIVE, 0)      # this is how a join spreads
    assert view.status_of("b") == ALIVE


# ----------------------------------------------------------------------
# Refutation: the liveness apology


def test_self_accusation_triggers_incarnation_bump():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    assert view.apply("a", SUSPECT, 0)
    assert view.status_of("a") == ALIVE           # never accepted
    assert view.incarnation_of("a") == 1          # outbid instead
    assert view.refutations == 1
    # A death verdict at the bumped incarnation is refuted again, higher.
    assert view.apply("a", DEAD, 1)
    assert view.status_of("a") == ALIVE
    assert view.incarnation_of("a") == 2
    assert view.refutations == 2


def test_stale_accusation_is_ignored_not_refuted():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    view.apply("a", SUSPECT, 0)                   # refutes to inc 1
    assert not view.apply("a", SUSPECT, 0)        # already outranked
    assert view.incarnation_of("a") == 1
    assert view.refutations == 1


def test_refutation_outranks_the_accusation_in_other_views():
    sim = Simulator(seed=0)
    accuser = MembershipView("b", sim)
    accuser.seed(["a", "b"])
    accuser.suspect("a")
    owner = MembershipView("a", sim)
    owner.seed(["a", "b"])
    # The accusation travels to the owner; the refutation travels back.
    owner.merge_wire(accuser.snapshot())
    accuser.merge_wire(owner.snapshot())
    assert accuser.status_of("a") == ALIVE
    assert accuser.incarnation_of("a") == 1


# ----------------------------------------------------------------------
# Suspicion timers


def test_unrefuted_suspicion_expires_to_dead():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim, suspicion_timeout=1.0)
    view.seed(["a", "b"])
    view.suspect("b")
    sim.run(until=0.9)
    assert view.status_of("b") == SUSPECT
    sim.run(until=1.1)
    assert view.status_of("b") == DEAD
    assert sim.metrics.counters()["membership.dead_declared"] == 1


def test_cleared_suspicion_cancels_the_expiry():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim, suspicion_timeout=1.0)
    view.seed(["a", "b"])
    view.suspect("b")
    sim.run(until=0.5)
    assert view.clear_suspicion("b")
    assert view.status_of("b") == ALIVE
    assert view.incarnation_of("b") == 1      # advanced past the suspicion
    sim.run(until=2.0)                        # the stale timer fires inert
    assert view.status_of("b") == ALIVE


def test_superseding_rumor_cancels_the_expiry():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim, suspicion_timeout=1.0)
    view.seed(["a", "b"])
    view.suspect("b")
    view.apply("b", ALIVE, 1)                 # the refutation arrives
    sim.run(until=2.0)
    assert view.status_of("b") == ALIVE


def test_a_view_never_suspects_its_owner():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    assert not view.suspect("a")
    assert view.status_of("a") == ALIVE


def test_clear_suspicion_needs_something_to_clear():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    view.seed(["a", "b"])
    assert not view.clear_suspicion("b")      # alive already
    assert not view.clear_suspicion("ghost")  # unknown


# ----------------------------------------------------------------------
# Dissemination budgets


def test_deltas_decrement_budget_until_exhausted():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim, retransmit_mult=3.0)
    view.seed(["a", "b"])
    assert view.deltas() == []                # seeding spreads nothing
    view.apply("c", ALIVE, 0)
    budget = 0
    while view.deltas():
        budget += 1
        assert budget < 100
    assert budget >= 3                        # the floor
    assert view.deltas() == []                # spent


def test_delta_limit_caps_the_piggyback():
    sim = Simulator(seed=0)
    view = MembershipView("a", sim)
    for i in range(10):
        view.apply(f"m{i}", ALIVE, 0)
    batch = view.deltas(limit=4)
    assert len(batch) == 4


# ----------------------------------------------------------------------
# Epidemic convergence over the fabric


def test_join_rumor_reaches_every_view():
    """A late joiner seeded with one introducer becomes alive in every
    view through rumor alone — no broadcast, no registry."""
    sim, network = make_fabric(seed=1)
    names = [f"m{i}" for i in range(8)]
    views, gossips = make_cluster(sim, network, names)
    for gossip in gossips.values():
        gossip.run(until=10.0)
    sim.run(until=1.0)
    newcomer = MembershipView("newcomer", sim, suspicion_timeout=1.0)
    newcomer.seed(["m0"])
    joiner = MembershipGossip(
        newcomer, network=network, period=0.25, fanout=2
    )
    joiner.run(until=10.0)
    sim.run(until=10.0)
    assert all(v.status_of("newcomer") == ALIVE for v in views.values())
    assert views_converged(list(views.values()) + [newcomer])


def test_full_sync_heals_a_view_with_spent_budgets():
    """Anti-entropy backstop: even after every delta budget is spent, a
    forced full exchange reconciles an aged view."""
    sim, network = make_fabric(seed=2)
    names = ["m0", "m1"]
    views, gossips = make_cluster(sim, network, names)
    views["m0"].apply("newcomer", ALIVE, 0)
    while views["m0"].deltas():
        pass                                  # burn the budget dry
    sim.run_process(gossips["m0"].round_once(force_full=True))
    assert views["m1"].status_of("newcomer") == ALIVE


def test_failed_probe_suspects_the_peer():
    sim, network = make_fabric(seed=3)
    names = ["m0", "m1"]
    views, gossips = make_cluster(
        sim, network, names, fanout=1, timeout=5.0
    )
    gossips["m1"].endpoint.stop("crashed")
    sim.spawn(gossips["m0"].round_once(), name="probe")
    sim.run(until=2.0)   # the probe has failed; the expiry is far off
    assert views["m0"].status_of("m1") == SUSPECT
    assert gossips["m0"].rounds_failed == 1
    sim.run()            # drain: the unrefuted suspicion hardens
    assert views["m0"].status_of("m1") == DEAD


def test_gossip_to_the_dead_reconverges_after_symmetric_partition():
    """The death-spiral regression: both sides of a partition that
    outlives the suspicion timeout hold the other dead. If rounds only
    ever target usable peers, neither side ever speaks across the healed
    divide — full-sync rounds must gossip at the believed-dead too."""
    sim, network = make_fabric(seed=4)
    names = [f"m{i}" for i in range(4)]
    views, gossips = make_cluster(
        sim, network, names, period=0.25, timeout=0.5
    )
    for gossip in gossips.values():
        gossip.run(until=30.0)
    sim.run(until=1.0)
    network.partition([{"m0", "m1"}, {"m2", "m3"}])
    sim.run(until=8.0)   # far past the suspicion timeout: verdicts harden
    assert views["m0"].status_of("m2") == DEAD
    assert views["m2"].status_of("m0") == DEAD
    network.heal()
    sim.run(until=30.0)
    assert views_converged(list(views.values()))
    for view in views.values():
        assert all(view.status_of(name) == ALIVE for name in names)


def test_left_member_is_not_gossiped_at():
    sim, network = make_fabric(seed=5)
    names = ["m0", "m1", "m2"]
    views, gossips = make_cluster(sim, network, names)
    views["m0"].leave("m2")
    assert "m2" not in views["m0"].member_names()
    assert views["m0"].status_of("m2") == LEFT
    # A same-incarnation alive rumor cannot resurrect the departed.
    assert not views["m0"].apply("m2", ALIVE, 0)
    # A genuine rejoin at a higher incarnation can.
    assert views["m0"].apply("m2", ALIVE, 1)


def test_desperate_round_falls_back_to_believed_dead_peers():
    """A view where everyone looks dead still gossips at someone —
    otherwise it could never hear a refutation."""
    sim, network = make_fabric(seed=6)
    names = ["m0", "m1"]
    views, gossips = make_cluster(sim, network, names, timeout=0.5)
    views["m0"].suspect("m1")
    sim.run(until=1.0)
    assert views["m0"].status_of("m1") == DEAD
    accepted = sim.run_process(gossips["m0"].round_once())
    # The believed-dead peer answered: its snapshot restores it to life
    # via the pull half of push-pull (m1 learns it was suspected and the
    # exchange carries fresher state back).
    assert views["m0"].is_usable("m1") or accepted >= 0


def test_views_converged_helper():
    sim = Simulator(seed=0)
    a = MembershipView("a", sim)
    b = MembershipView("b", sim)
    a.seed(["a", "b"])
    b.seed(["a", "b"])
    assert views_converged([a, b])
    assert views_converged([])
    a.suspect("b")
    assert not views_converged([a, b])


# ----------------------------------------------------------------------
# Determinism and validation


def test_gossip_is_deterministic():
    def run_once():
        sim, network = make_fabric(seed=7)
        names = [f"m{i}" for i in range(5)]
        views, gossips = make_cluster(sim, network, names)
        for gossip in gossips.values():
            gossip.run(until=6.0)
        sim.run(until=1.0)
        network.partition([{"m0"}, {"m1", "m2", "m3", "m4"}])
        sim.run(until=4.0)
        network.heal()
        sim.run(until=6.0)
        return (
            sim.metrics.counters(),
            {n: sorted(v.entries().items()) for n, v in views.items()},
        )

    assert run_once() == run_once()


def test_bad_parameters_rejected():
    sim, network = make_fabric()
    view = MembershipView("a", sim)
    with pytest.raises(SimulationError):
        MembershipView("a", sim, suspicion_timeout=0.0)
    with pytest.raises(SimulationError):
        MembershipGossip(view)                      # no endpoint, no network
    with pytest.raises(SimulationError):
        MembershipGossip(view, network=network, fanout=0)
    with pytest.raises(SimulationError):
        MembershipGossip(view, network=network, period=0.0)
    with pytest.raises(SimulationError):
        MembershipGossip(view, network=network, full_sync_every=0)
