"""An endpoint owns its node's background loops: ``stop()`` interrupts
them, ``restart()`` spawns again the ones it interrupted, ``end(name)``
retires one for good, and ``spawn`` runs at most one loop per name."""

from repro.net import Endpoint, Network
from repro.sim import Simulator, Timeout


def owner_of_three_loops():
    """One endpoint with a ticking loop (sleeps on a Timeout), a parked
    loop (waits on an event), and one that returns after one tick. Each
    loop's body appends its name to ``ran`` whenever it runs."""
    sim = Simulator(seed=0)
    endpoint = Endpoint(Network(sim), "node")
    endpoint.start()
    ran = []
    wake = {}

    def ticking():
        while True:
            ran.append("ticking")
            yield Timeout(1.0)

    def parked():
        while True:
            ran.append("parked")
            wake["event"] = sim.event("wake")
            yield wake["event"]

    def once():
        ran.append("once")
        yield Timeout(1.0)

    endpoint.spawn("ticking", ticking)
    endpoint.spawn("parked", parked)
    endpoint.spawn("once", once)
    sim.run(until=2.5)
    return sim, endpoint, ran, wake


def test_a_stopped_endpoint_runs_no_loop_body():
    sim, endpoint, ran, wake = owner_of_three_loops()
    assert ran.count("once") == 1 and "parked" in ran
    endpoint.stop("crash")
    del ran[:]
    wake["event"].trigger(None)  # nobody is waiting on it any more
    sim.run(until=sim.now + 10.0)
    assert ran == []


def test_restart_spawns_again_only_the_unfinished_loops():
    sim, endpoint, ran, _wake = owner_of_three_loops()
    endpoint.stop("crash")
    sim.run(until=sim.now + 10.0)
    del ran[:]
    endpoint.restart()
    sim.run(until=sim.now + 2.5)
    assert ran.count("ticking") == 3
    assert ran.count("parked") == 1
    assert "once" not in ran


def test_spawn_under_a_running_loops_name_is_a_no_op():
    sim, endpoint, ran, _wake = owner_of_three_loops()
    del ran[:]

    def impostor():
        ran.append("impostor")
        yield Timeout(1.0)

    endpoint.spawn("ticking", impostor)
    endpoint.spawn("parked", impostor)
    sim.run(until=sim.now + 1.0)
    assert "impostor" not in ran
    # The finished loop's name is free again.
    endpoint.spawn("once", impostor)
    sim.run(until=sim.now + 1.0)
    assert ran.count("impostor") == 1


def test_an_ended_loop_does_not_come_back_on_restart():
    sim, endpoint, ran, _wake = owner_of_three_loops()
    endpoint.end("ticking", "retired")
    endpoint.stop("crash")
    endpoint.end("parked", "retired")  # ended while the endpoint is down
    endpoint.restart()
    del ran[:]
    sim.run(until=sim.now + 10.0)
    assert ran == []
