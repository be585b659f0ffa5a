"""The roots: everything that *runs* the system.

Both reach guards read this one list. The import guard in
``tests/test_experiments_index.py`` walks imports from
:func:`import_roots`. The behaviour manifest (``tests/golden/manifest.py``)
makes an entry of each root: every example, the chaos CLI's smoke gate
and one plain scenario sweep, every indexed bench's tables and each
benchmark workload's laps and layer ladder. Its run of those entries is
the call audit (``tests/reach/check_executed.py``), which records the
functions they enter. Code that no root reaches reproduces no claim.

Stdlib only (with the repository and ``src`` on ``sys.path``).
"""

import json
from pathlib import Path

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
