"""RNG streams: determinism and stream independence."""

from repro.sim import RngRegistry, Simulator


def test_same_seed_same_sequence():
    a = RngRegistry(42).stream("x")
    b = RngRegistry(42).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x")
    b = RngRegistry(2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_streams_are_independent():
    registry = RngRegistry(42)
    first_of_y_before = RngRegistry(42).stream("y").random()
    # Consuming from "x" must not perturb "y".
    registry.stream("x").random()
    registry.stream("x").random()
    assert registry.stream("y").random() == first_of_y_before


def test_stream_cached():
    registry = RngRegistry(0)
    assert registry.stream("a") is registry.stream("a")


def test_simulator_owns_registry():
    sim = Simulator(seed=7)
    assert sim.rng.master_seed == 7
    assert sim.rng.stream("test").random() == RngRegistry(7).stream("test").random()
