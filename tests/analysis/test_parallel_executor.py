"""The shared multiprocessing executor: order, fallback, determinism.

The load-bearing claim: fanning a sweep out over worker processes changes
wall time only — reports, metrics, and aggregates are bit-identical to
the serial path, because every unit of work builds its own Simulator
(which resets the process-global counters via the fresh-run hooks).
"""

import os
import pickle
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import BankClearingScenario
from repro.parallel import parallel_map

SRC = Path(__file__).resolve().parents[2] / "src"


def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _pid(_value):
    return os.getpid()


def _mark_then_nap(path):
    Path(path).touch()
    time.sleep(0.05)
    return path


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this repo's src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=30,
    )


def test_parallel_map_preserves_order_serial():
    assert list(parallel_map(_square, [3, 1, 2], processes=1)) == [9, 1, 4]


def test_parallel_map_preserves_order_with_pool():
    assert list(parallel_map(_square, list(range(10)), processes=2)) == [
        n * n for n in range(10)
    ]


def test_parallel_map_empty_and_single():
    assert list(parallel_map(_square, [], processes=4)) == []
    assert list(parallel_map(_square, [7], processes=4)) == [49]


def test_parallel_map_worker_exception_propagates():
    with pytest.raises(ValueError):
        list(parallel_map(_boom, [1, 2, 3], processes=2))


def test_a_dead_worker_raises_instead_of_hanging():
    """A worker that exits mid-item used to leave the call waiting
    forever; now the pool reports itself broken. The call runs in a
    subprocess with its own timeout, so a regression fails here rather
    than stalling the suite."""
    done = _run_python("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from repro.parallel import parallel_map

        def unit(value):
            if value == 2:
                os._exit(3)
            return value

        try:
            list(parallel_map(unit, [1, 2, 3], processes=2))
        except BrokenProcessPool:
            print("raised")
    """)
    assert done.stdout.strip() == "raised", done.stderr


def test_closing_early_cancels_the_items_no_worker_started(tmp_path):
    paths = [str(tmp_path / str(n)) for n in range(40)]
    results = parallel_map(_mark_then_nap, paths, processes=2)
    assert next(results) == paths[0]
    results.close()
    started = len(list(tmp_path.iterdir()))
    # Two items running plus the pool's short call queue, never all 40.
    assert started < 10


@pytest.mark.parametrize("hook", ["setprofile", "settrace", "tracemalloc"])
def test_a_measured_process_runs_every_item_itself(hook):
    """A profile or trace hook, or tracemalloc, cannot see a worker's
    calls or allocations, so while one is on nothing leaves the process."""
    if hook == "tracemalloc":
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            pids = list(parallel_map(_pid, range(6), processes=2))
        finally:
            if not tracing:
                tracemalloc.stop()
    else:
        get, set_ = {
            "setprofile": (sys.getprofile, sys.setprofile),
            "settrace": (sys.gettrace, sys.settrace),
        }[hook]
        previous = get()
        set_(previous or (lambda *_args: None))
        try:
            pids = list(parallel_map(_pid, range(6), processes=2))
        finally:
            set_(previous)
    assert pids == [os.getpid()] * 6


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs in-process")
def test_an_unmeasured_process_fans_out():
    if sys.getprofile() is not None or sys.gettrace() is not None \
            or tracemalloc.is_tracing():
        pytest.skip("this run is measured (coverage or a profiler)")
    pids = list(parallel_map(_pid, range(6), None))
    assert len(pids) == 6
    assert any(pid != os.getpid() for pid in pids)


def test_importing_the_runner_leaves_the_pool_machinery_unimported():
    """A measured run never starts a pool, so it never pays for one."""
    done = _run_python("""
        import sys
        import repro.chaos.runner
        print(sorted(m for m in ("concurrent.futures.process", "multiprocessing.pool")
                     if m in sys.modules))
    """)
    assert done.stdout.strip() == "[]", done.stderr


def test_chaos_sweep_parallel_matches_serial():
    seeds = [0, 1, 2]
    serial_runner = ChaosRunner(BankClearingScenario(policy="correct"))
    parallel_runner = ChaosRunner(BankClearingScenario(policy="correct"))

    serial = serial_runner.sweep(seeds, processes=1)
    parallel = parallel_runner.sweep(seeds, processes=2)

    assert serial.reports == parallel.reports
    assert serial.failures == parallel.failures
    assert (
        serial_runner.metrics.counters() == parallel_runner.metrics.counters()
    )


def test_a_runner_whose_scenario_has_run_can_still_fan_out():
    """``Scenario.run`` leaves its live world (simulator, cluster, closures,
    generators) on the scenario; a scenario crosses to a worker as its
    configuration only."""
    runner = ChaosRunner(BankClearingScenario(policy="correct"))
    serial = runner.sweep([0, 1])
    clone = pickle.loads(pickle.dumps(runner.scenario))
    assert not any(name.startswith("_") for name in vars(clone))
    assert vars(clone) == {
        name: value for name, value in vars(runner.scenario).items()
        if not name.startswith("_")
    }
    parallel = runner.sweep([0, 1], processes=2)
    assert parallel.reports == serial.reports
