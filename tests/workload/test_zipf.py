"""Zipf key popularity and the open-loop GET/PUT driver."""

import pytest

from repro.dynamo import DynamoCluster
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.workload import ZipfKeyGenerator, zipf_open_loop


def _gen(seed=1, **kwargs):
    sim = Simulator(seed=seed)
    return ZipfKeyGenerator(sim.rng.stream("zipf"), **kwargs)


def test_bad_parameters_rejected():
    with pytest.raises(SimulationError):
        _gen(keyspace=0)
    with pytest.raises(SimulationError):
        _gen(theta=-0.1)


def test_rank_zero_is_hottest():
    gen = _gen(keyspace=1000, theta=0.99)
    counts = {}
    for _ in range(5000):
        rank = gen.rank()
        counts[rank] = counts.get(rank, 0) + 1
    assert max(counts, key=counts.get) == 0
    # Hot head: rank 0 alone takes a visibly outsized share.
    assert counts[0] > 5000 * 0.05


def test_theta_zero_is_uniform_support():
    gen = _gen(keyspace=50, theta=0.0)
    ranks = {gen.rank() for _ in range(3000)}
    assert len(ranks) == 50  # every rank reachable with equal weight


def test_key_names_are_a_bijection_of_ranks():
    gen = _gen(keyspace=512)
    names = {gen.key_for_rank(rank) for rank in range(512)}
    assert len(names) == 512


def test_same_seed_same_draws():
    a, b = _gen(seed=7, keyspace=10_000), _gen(seed=7, keyspace=10_000)
    assert [a.key() for _ in range(200)] == [b.key() for _ in range(200)]


def test_hot_keys_prefix():
    gen = _gen(keyspace=100, prefix="hot")
    hot = gen.hot_keys(5)
    assert len(hot) == 5
    assert hot[0] == gen.key_for_rank(0)
    assert all(k.startswith("hot") for k in hot)


def test_million_key_space_draws_cheaply():
    gen = _gen(keyspace=1_000_000)
    keys = {gen.key() for _ in range(1000)}
    assert len(keys) > 300  # skewed, but the tail is long


def test_open_loop_driver_counts_requests():
    sim = Simulator(seed=5)
    cluster = DynamoCluster(num_nodes=5, sim=sim)
    client = cluster.client("zipf")
    keys = ZipfKeyGenerator(sim.rng.stream("zipf"), keyspace=200)
    stats = {}
    sim.spawn(
        zipf_open_loop(sim, client, keys, rate=100.0, count=150, stats=stats),
        name="driver",
    )
    sim.run()
    assert stats["requests"] == 150
    total = (
        stats["gets"] + stats["puts"]
        + stats["failed_gets"] + stats["failed_puts"]
    )
    assert total == 150
    assert stats["failed_gets"] == 0 and stats["failed_puts"] == 0
    assert stats["puts"] > 0


def test_open_loop_driver_validation():
    sim = Simulator(seed=5)
    keys = ZipfKeyGenerator(sim.rng.stream("zipf"), keyspace=10)
    with pytest.raises(SimulationError):
        next(zipf_open_loop(sim, None, keys, rate=0.0, count=1))
    with pytest.raises(SimulationError):
        next(zipf_open_loop(sim, None, keys, rate=1.0))  # no count, no until
    with pytest.raises(SimulationError):
        next(zipf_open_loop(sim, None, keys, rate=1.0, count=1, get_fraction=1.5))


def test_open_loop_counts_failures_instead_of_raising():
    sim = Simulator(seed=6)
    cluster = DynamoCluster(num_nodes=5, sim=sim)
    client = cluster.client("zipf")
    keys = ZipfKeyGenerator(sim.rng.stream("zipf"), keyspace=50)
    for name in list(cluster.nodes):
        cluster.crash(name)
    stats = {}
    sim.spawn(
        zipf_open_loop(sim, client, keys, rate=100.0, count=40, stats=stats),
        name="driver",
    )
    sim.run()
    assert stats["requests"] == 40
    assert stats["failed_gets"] + stats["failed_puts"] == 40
