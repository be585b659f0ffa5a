"""The shared multiprocessing executor: order, fallback, determinism.

The load-bearing claim: fanning a sweep out over worker processes changes
wall time only — reports, metrics, and aggregates are bit-identical to
the serial path, because every unit of work builds its own Simulator
(which resets the process-global counters via the fresh-run hooks).
"""

import pytest

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import BankClearingScenario
from repro.parallel import parallel_map


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def test_parallel_map_preserves_order_serial():
    assert parallel_map(_square, [3, 1, 2], processes=1) == [9, 1, 4]


def test_parallel_map_preserves_order_with_pool():
    assert parallel_map(_square, list(range(10)), processes=2) == [
        n * n for n in range(10)
    ]


def test_parallel_map_empty_and_single():
    assert parallel_map(_square, [], processes=4) == []
    assert parallel_map(_square, [7], processes=4) == [49]


def test_parallel_map_worker_exception_propagates():
    with pytest.raises(ValueError):
        parallel_map(_boom, [1, 2, 3], processes=2)


def test_chaos_sweep_parallel_matches_serial():
    seeds = [0, 1, 2]
    serial_runner = ChaosRunner(BankClearingScenario(policy="correct"))
    parallel_runner = ChaosRunner(BankClearingScenario(policy="correct"))

    serial = serial_runner.sweep(seeds, shrink=False, processes=1)
    parallel = parallel_runner.sweep(seeds, shrink=False, processes=2)

    assert serial.reports == parallel.reports
    assert serial.failures == parallel.failures
    assert (
        serial_runner.metrics.counters() == parallel_runner.metrics.counters()
    )
