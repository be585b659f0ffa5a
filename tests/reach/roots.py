"""The roots: everything that *runs* the system.

Both reach guards read this one list. The import guard in
``tests/test_experiments_index.py`` walks imports from
:func:`import_roots`; the call audit ``tests/reach/check_executed.py``
runs each of :func:`commands` and records which functions they enter.
Code that no root reaches reproduces no claim.

Stdlib only (with the repository and ``src`` on ``sys.path``), so the
audit runs without pytest.
"""

import json
from pathlib import Path

from bench.inputs import DEFAULT_SEED
from repro.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CLI = "repro.chaos.runner"


def indexed_benches():
    return [REPO / experiment.bench for experiment in EXPERIMENTS]


def examples():
    return sorted((REPO / "examples").glob("*.py"))


def bench_workloads():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["workloads"]]


def import_roots():
    """Files whose imports the import guard walks: the indexed benches,
    ``bench/``, the examples and the chaos CLI."""
    roots = indexed_benches()
    roots += sorted((REPO / "bench").glob("*.py"))
    roots += examples()
    roots.append(SRC.joinpath(*CLI.split(".")).with_suffix(".py"))
    return roots


def commands():
    """``(label, argv)`` pairs, ``argv`` being what follows ``python``, run
    from the repository root the way CI and the benchmark run them: every
    example, the smoke gate with its report, one plain scenario sweep (the
    CLI's non-smoke path), every indexed bench at its defaults, and each
    benchmark workload's lap at full scale plus the layer ladder (a
    smaller scale skips code a full-size lap runs)."""
    yield from (
        (f"example {path.stem}", [str(path.relative_to(REPO))])
        for path in examples()
    )
    yield ("chaos smoke", ["-m", CLI, "--smoke", "--report", "{tmp}/report.json"])
    yield ("chaos scenario", ["-m", CLI, "--scenario", "bank", "--policy",
                              "correct", "--seeds", "1"])
    # Every bench test takes the benchmark fixture, so disabled timing runs
    # exactly what --benchmark-only does, once, without the fixture
    # pausing the call hook around the timed rounds.
    yield ("benches", [
        "-m", "pytest", "--benchmark-disable", "-q", "-p", "no:cacheprovider",
        *(str(path.relative_to(REPO)) for path in indexed_benches()),
    ])
    lap = ["-m", "bench", "lap", "--seed", str(DEFAULT_SEED), "--scale", "1.0",
           "--spawned-at", "0"]
    for workload in bench_workloads():
        yield (f"bench lap {workload}",
               [*lap, "--mode", "timed", "--workload", workload])
    yield ("bench layers",
           [*lap, "--mode", "layers", "--workload", bench_workloads()[0]])
