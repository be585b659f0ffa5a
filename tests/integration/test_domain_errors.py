"""Misuse fails loudly with a domain error (ROADMAP, correctness aim):
a periodic loop refuses a period it would spin on, and a driver call on
an unknown site or node names it instead of dying of a bare KeyError."""

import pytest

from repro.core import Replica, TypeRegistry, gossip_every
from repro.dynamo import DynamoCluster
from repro.errors import SimulationError
from repro.gossip import GossipNode
from repro.logship import LogShippingSystem
from repro.net import Network
from repro.sim import Simulator


def _gossiper(**kwargs):
    replica = Replica("a", TypeRegistry(initial_state=dict))
    return GossipNode(Network(Simulator()), replica, peers=["b"], **kwargs)


def _timed_gossip(**kwargs):
    gossip_every(Simulator(), [], until=1.0, **kwargs)


def _failover(**kwargs):
    LogShippingSystem().start_failover(**kwargs)


@pytest.mark.parametrize(
    "build, name, value",
    [
        (_gossiper, "period", 0.0),     # back-to-back rounds with no pause
        (_gossiper, "period", -1.0),
        (_timed_gossip, "period", 0.0),
        # An explicit 0 is not "unset": it must not fall back to the default.
        (_failover, "poll_interval", 0.0),
    ],
)
def test_a_periodic_loop_rejects_a_period_it_would_spin_on(build, name, value):
    with pytest.raises(SimulationError, match=f"{name.replace('_', ' ')} {value}"):
        build(**{name: value})


def _drive(result):
    """Generator-returning driver calls raise on their first step."""
    if hasattr(result, "send"):
        next(result)


@pytest.mark.parametrize(
    "make_system, method, args, unknown, known",
    [
        (LogShippingSystem, "submit_to", ("north", {"k": 1}), "north", "east"),
        (LogShippingSystem, "rejoin", ("north",), "north", "west"),
        (DynamoCluster, "crash", ("nope",), "nope", "node0"),
        (DynamoCluster, "restart", ("nope",), "nope", "node0"),
        (DynamoCluster, "cold_crash", ("nope",), "nope", "node0"),
        (DynamoCluster, "cold_restart", ("nope",), "nope", "node0"),
    ],
)
def test_an_unknown_site_or_node_is_named_with_the_known_ones(
    make_system, method, args, unknown, known
):
    system = make_system(seed=1)
    with pytest.raises(SimulationError) as raised:
        _drive(getattr(system, method)(*args))
    assert repr(unknown) in str(raised.value)
    assert repr(known) in str(raised.value)
