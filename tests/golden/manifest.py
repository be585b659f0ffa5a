"""The behaviour manifest: what every root of the system does, pinned one
component at a time, and the call audit over the same run.

    python tests/golden/manifest.py              # check; exit 1 names each mismatch
    python tests/golden/manifest.py --write      # regenerate every pin from one run
    python tests/golden/manifest.py --dump DIR   # check, and write the canonical texts
    python tests/golden/manifest.py --diff A B   # the first diverging line per component

Run from the repository root; stdlib only, no pytest, no ``PYTHONPATH``.
The entries come from the roots in ``tests/reach/roots.py``, the smoke
gate's ``SMOKE_ROWS`` and ``GOLDEN_RUNS``: ``smoke`` (the ``--smoke``
stdout and report), ``cli/scenario`` (one plain ``--scenario`` sweep),
``smoke/<label>/<seed>`` and ``scenario/<name>/<seed>`` (one chaos run's
``plan``, ``violations``, ``counters``, ``histograms`` and ``trace``, its
``steps`` and ``end`` raw), ``golden/<name>`` (a golden run's trace, also
written out as ``fixtures/<name>.trace.txt``, and counters),
``example/<name>`` (stdout), ``table/<id>`` (the tables a bench renders),
``bench/<workload>`` (the exact fields of one full-scale and one heap lap,
pinned in ``tests/perf/bench_exact.json``) and ``bench/layers`` (the layer
ladder's rung names). Every other component is pinned in
``BEHAVIOUR.json`` as the sha256 of its canonical text.

Every entry but ``smoke/*``, ``scenario/*`` and ``golden/*`` is a root. On
CPython 3.12 or later the roots run in this process under the call
audit's ``sys.monitoring`` recorder (``tests/reach/check_executed.py``),
which holds what they called and set to ``tests/reach/unexecuted.txt``,
while the other entries run in a worker. Before 3.12 only the pins are
checked, every entry through the pool.

A refactor leaves the manifest unchanged. A change that moves behaviour on
purpose regenerates it once with ``--write``, which names every component
that moved; ``--dump`` before and after, then ``--diff``, says where.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import runpy
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
sys.path[:0] = [path for path in (str(SRC), str(REPO)) if path not in sys.path]

from tests.reach.check_executed import CallRecorder, report  # noqa: E402

#: The call audit's recorder, when the manifest runs as a script on
#: CPython 3.12 or later: open before the roots' modules are imported,
#: since importing them is part of every root's run.
RECORDER = (CallRecorder().open()
            if __name__ == "__main__" and hasattr(sys, "monitoring") else None)

from bench.inputs import DEFAULT_SEED  # noqa: E402
from bench.lap import run_lap  # noqa: E402
from bench.layers import measure_all  # noqa: E402
from bench.runner import HEAP_SCALE  # noqa: E402
from repro.chaos.game_day import GameDayScenario  # noqa: E402
from repro.chaos.runner import SMOKE_ROWS, main as chaos_cli  # noqa: E402
from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario  # noqa: E402
from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.parallel import parallel_map  # noqa: E402
from tests.chaos.worlds import keep_sims  # noqa: E402
from tests.golden.scenarios import (  # noqa: E402
    GOLDEN_RUNS, render_counters, render_trace, trace_path,
)
from tests.perf.check_bench_exact import PINNED as BENCH_EXACT  # noqa: E402
from tests.reach import roots  # noqa: E402

PINNED = Path(__file__).with_name("BEHAVIOUR.json")

#: The seeds ``--smoke`` sweeps: its ``--seeds`` default.
SMOKE_SEEDS = range(5)

#: Configurations the smoke gate leaves out, swept like ``--scenario``:
#: the last-writer-wins cart (event-identical to the correct one at these
#: seeds), the bank's other planted bug, and the unfenced game day.
SCENARIOS = {
    "cart_lww": partial(CartDynamoScenario, policy="lww"),
    "bank_branch_uniquifier": partial(
        BankClearingScenario, policy="branch-uniquifier"),
    "game_day_unfenced_fixed": partial(
        GameDayScenario, policy="unfenced", detector="fixed", nodes_per_site=4),
}

#: The one plain ``--scenario`` sweep of the ``cli/scenario`` entry.
CLI_SCENARIO = ["--scenario", "bank", "--policy", "correct", "--seeds", "1"]

#: Components stored as they are, not as a digest.
RAW = ("steps", "end")

#: The entry pinned in BEHAVIOUR.json, not bench_exact.json, of its kind.
LAYERS = "bench/layers"


def entries():
    """Every entry a root backs, in manifest order."""
    names = ["smoke", "cli/scenario"]
    names += [f"smoke/{row.label}/{seed}"
              for row in SMOKE_ROWS for seed in SMOKE_SEEDS[:row.max_seeds]]
    names += [f"scenario/{name}/{seed}" for name in SCENARIOS for seed in SMOKE_SEEDS]
    names += [f"golden/{name}" for name in GOLDEN_RUNS]
    names += [f"example/{path.stem}" for path in roots.examples()]
    # roots.indexed_benches() is the bench of every experiment.
    names += [f"table/{experiment.id}" for experiment in EXPERIMENTS]
    names += [f"bench/{workload}" for workload in roots.bench_workloads()]
    names.append(LAYERS)
    return names


def is_root(entry):
    """Does the call audit count what ``entry`` calls? The smoke gate's
    rows, the extra scenarios and the golden runs are not roots."""
    return entry == "smoke" or entry.split("/")[0] in ("cli", "example", "table", "bench")


def _exact(entry):
    """Is ``entry`` pinned field by field in bench_exact.json?"""
    return entry.startswith("bench/") and entry != LAYERS


# ----------------------------------------------------------------------
# Canonical texts, one function per kind of entry


def _lines(lines):
    return "".join(f"{line}\n" for line in lines)


def _printed(run, *args, **kwargs):
    """What ``run(*args, **kwargs)`` prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run(*args, **kwargs)
    return printed.getvalue()


def _chaos_run(build, spec_overrides, seed):
    """One run as ``ChaosRunner`` makes it: the spec samples the seed's
    plan, and the scenario runs it."""
    scenario = build()
    sims = keep_sims(scenario)
    plan = scenario.spec(**dict(spec_overrides)).sample(seed)
    report = scenario.run(seed, plan)
    sim = sims[0]
    return {
        "plan": _lines(json.dumps(episode, sort_keys=True)
                       for episode in plan.to_dict()["episodes"]),
        "violations": _lines(
            json.dumps([v.invariant, v.time, v.detail, v.phase, list(v.context)])
            for v in report.violations
        ),
        "counters": render_counters(report.counters),
        "histograms": _lines(
            f"{name}: {' '.join(map(repr, histogram.values))}"
            for name, histogram in sim.metrics.histograms().items()
        ),
        "trace": render_trace(sim),
        "steps": sim.steps,
        "end": report.end_time,
    }


def _smoke_row(label, seed):
    row = next(row for row in SMOKE_ROWS if row.label == label)
    return _chaos_run(row.build, row.spec_overrides, int(seed))


def _scenario(name, seed):
    return _chaos_run(SCENARIOS[name], (), int(seed))


def _golden(name):
    trace, counters = GOLDEN_RUNS[name]()
    return {"trace": trace, "counters": counters}


def _example(name):
    """What ``python examples/<name>.py`` prints: its ``main()``, run
    without standing in for ``__main__``, which a worker's tasks are
    pickled against meanwhile."""
    return {"stdout": _printed(lambda: runpy.run_path(
        str(REPO / "examples" / f"{name}.py"))["main"]())}


def _table(experiment_id):
    """What the bench prints under ``pytest -s``: each ``test_*`` prints its
    tables with ``Table.print``."""
    bench = next(e.bench for e in EXPERIMENTS if e.id == experiment_id)
    module = importlib.import_module(bench.removesuffix(".py").replace("/", "."))
    tests = [test for name, test in vars(module).items() if name.startswith("test_")]
    return {"tables": "".join(map(_printed, tests))}


def _cli(_name):
    return {"stdout": _printed(chaos_cli, CLI_SCENARIO)}


def _bench(name):
    """``layers``: the names of the rungs the layer ladder reports, one a
    line. A workload: the exact fields of one timed lap at full scale and
    one heap lap, as ``bench.runner.run_workload`` reads them off a run's
    laps."""
    if name == "layers":
        return {"rungs": _lines(measure_all(DEFAULT_SEED))}
    timed, heap = (run_lap(name, DEFAULT_SEED, scale, mode, time.time())
                   for mode, scale in (("timed", 1.0), ("heap", HEAP_SCALE)))
    return {
        "ops_per_lap": timed["attempted"],
        "failed_per_lap": timed["failed"],
        "failed_op_share": timed["failed"] / timed["attempted"],
        "events": timed.get("events"),
        "sim_p50_ms": timed.get("sim_p50_ms"),
        "sim_p99_ms": timed.get("sim_p99_ms"),
        "sim_digest": timed["sim_digest"],
        "heap_lap.sim_digest": heap["sim_digest"],
    }


_KINDS = {
    "smoke": _smoke_row, "cli": _cli, "scenario": _scenario, "golden": _golden,
    "example": _example, "table": _table, "bench": _bench,
}


def entry_texts(entry):
    """The canonical texts of one entry's components (``RAW`` ones, and a
    ``bench/<workload>``'s fields, as values). Module-level, so a worker
    process can run it."""
    if entry == "smoke":
        return smoke_texts()
    kind, *args = entry.split("/")
    return _KINDS[kind](*args)


def smoke_texts():
    """``--smoke --report FILE``, as the CLI runs it. With ``--report`` it
    prints one more line, naming the file; the rest is ``--smoke``'s."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        stdout = _printed(chaos_cli, ["--smoke", "--report", path])
        report = Path(path).read_text()
    return {"stdout": stdout.replace(f"invariant report -> {path}\n", ""), "report": report}


# ----------------------------------------------------------------------
# Running entries


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(names, sink=None, recorder=None):
    """``{entry: {component: sha256 of its text, or its RAW value}}`` for
    ``names``; a ``bench/<workload>`` entry maps to its exact fields
    instead. ``sink(entry, component, text)`` receives every canonical
    text.

    Without a ``recorder`` every entry runs through one pool, the longest
    (the bench laps and the smoke) first. With an open one the roots run
    in this process, which closes it after them, while the other entries
    run in one spawned worker, unrecorded."""
    results = {}

    def record(entry, texts):
        if _exact(entry):
            results[entry] = texts
            texts = {"fields": _lines(f"{field}: {json.dumps(value)}"
                                      for field, value in texts.items())}
        else:
            results[entry] = {component: text if component in RAW else sha256(text)
                              for component, text in texts.items()}
        for component, text in texts.items():
            if sink is not None:
                sink(entry, component, f"{text!r}\n" if component in RAW else text)

    if recorder is None:
        names = sorted(names, key=lambda name: not name.startswith(("bench/", "smoke")))
        for entry, texts in zip(names, parallel_map(entry_texts, names, None)):
            record(entry, texts)
        return results
    rest = [name for name in names if not is_root(name)]
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        pending = [pool.submit(entry_texts, entry) for entry in rest]
        for entry in names:
            if is_root(entry):
                record(entry, entry_texts(entry))
        recorder.close()
        for entry, future in zip(rest, pending):
            record(entry, future.result())
    return results


def load():
    """The pins: ``(BEHAVIOUR.json, bench_exact.json)``, empty where absent."""
    return tuple(json.loads(path.read_text()) if path.exists() else {}
                 for path in (PINNED, BENCH_EXACT))


def mismatches(results, pinned, exact):
    """One line per (entry, component) of ``results`` that differs from
    its pin."""
    lines = []
    for entry, got in results.items():
        want = exact.get(entry.split("/")[1]) if _exact(entry) else pinned.get(entry)
        if want is None:
            lines.append(f"{entry}: not pinned")
            continue
        for component in [*want, *(c for c in got if c not in want)]:
            expected = want.get(component, "<missing>")
            actual = got.get(component, "<missing>")
            if expected != actual:
                lines.append(f"{entry} {component}: pinned {expected!r}, got {actual!r}")
    return lines


def unbacked(pinned, exact):
    """Each root without an entry, and each entry no root backs."""
    expected = entries()
    have = [*pinned, *(f"bench/{workload}" for workload in exact)]
    return ([f"{entry}: a root with no entry" for entry in expected if entry not in have]
            + [f"{entry}: an entry no root backs" for entry in have if entry not in expected])


def stale_witnesses(pinned):
    """Each golden trace witness that is not the trace its entry pins."""
    return [
        f"{trace_path(name).relative_to(REPO)}: not the pinned golden/{name} trace"
        for name in GOLDEN_RUNS
        if not trace_path(name).exists()
        or sha256(trace_path(name).read_text()) != pinned.get(f"golden/{name}", {}).get("trace")
    ]


def write(results, golden_traces):
    """Write BEHAVIOUR.json, bench_exact.json and the trace witnesses."""
    pinned = {name: results[name] for name in entries() if not _exact(name)}
    exact = {name.split("/")[1]: results[name] for name in entries() if _exact(name)}
    for pins, path in ((pinned, PINNED), (exact, BENCH_EXACT)):
        path.write_text("{\n" + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(value)}" for key, value in pins.items()
        ) + "\n}\n")
    for name, trace in golden_traces.items():
        trace_path(name).write_text(trace)


# ----------------------------------------------------------------------
# Dumps and their differences


def _dump_path(root, entry, component):
    return Path(root, *entry.split("/"), f"{component}.txt")


def _shown(line, column):
    """``line``, cut to what a terminal shows around ``column``."""
    if len(line) <= 160:
        return line
    start = max(column - 60, 40)
    return f"{line[:40]} … {line[start:start + 100]}"


def diff(a_dir, b_dir):
    """One line pair per component whose text differs between two dumps:
    where it first diverges, and what each side has there."""
    a_dir, b_dir = Path(a_dir), Path(b_dir)
    files = sorted({path.relative_to(root) for root in (a_dir, b_dir)
                    for path in root.rglob("*.txt")})
    lines = []
    for relative in files:
        where = f"{relative.parent.as_posix()} {relative.stem}"
        a, b = a_dir / relative, b_dir / relative
        if not (a.exists() and b.exists()):
            lines.append(f"{where}: only in {a_dir if a.exists() else b_dir}")
            continue
        a_lines, b_lines = a.read_text().splitlines(), b.read_text().splitlines()
        if a_lines == b_lines:
            continue
        number = next((n for n, (x, y) in enumerate(zip(a_lines, b_lines)) if x != y),
                      min(len(a_lines), len(b_lines)))
        a_line = a_lines[number] if number < len(a_lines) else "<end>"
        b_line = b_lines[number] if number < len(b_lines) else "<end>"
        column = next((i for i, (x, y) in enumerate(zip(a_line, b_line)) if x != y),
                      min(len(a_line), len(b_line)))
        lines += [f"{where}, line {number + 1}:",
                  f"  A: {_shown(a_line, column)}",
                  f"  B: {_shown(b_line, column)}"]
    return lines


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tests/golden/manifest.py",
        description="Check (default), regenerate or compare the behaviour manifest.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="regenerate BEHAVIOUR.json, bench_exact.json and the "
                           "trace witnesses from one run")
    mode.add_argument("--dump", metavar="DIR",
                      help="also write every canonical text under DIR")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"),
                      help="compare two dumps")
    args = parser.parse_args(argv)
    if args.diff:
        lines = diff(*args.diff)
        print("\n".join(lines) if lines else "the dumps agree")
        return 1 if lines else 0

    sink, golden_traces = None, {}
    if args.dump:
        def sink(entry, component, text):
            path = _dump_path(args.dump, entry, component)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    elif args.write:
        def sink(entry, component, text):
            if entry.startswith("golden/") and component == "trace":
                golden_traces[entry.split("/")[1]] = text

    if RECORDER is None:
        print("checking the pins only: the call audit needs CPython 3.12 "
              "or later (sys.monitoring)")
    started = time.perf_counter()
    pinned, exact = load()
    results = run(entries(), sink, RECORDER)
    moved = mismatches(results, pinned, exact)
    if args.write:
        write(results, golden_traces)
        print("\n".join(f"moved: {line}" for line in moved))
        print(f"{len(results)} entries written, {len(moved)} components moved")
        return 0
    complaints = moved + unbacked(pinned, exact) + stale_witnesses(pinned)
    if RECORDER is not None:
        found, counts = report(RECORDER)
        complaints += found
        print(counts)
    if complaints:
        print("\n".join(complaints))
    print(f"{len(results)} entries checked: {len(complaints)} complaints "
          f"({time.perf_counter() - started:.0f} s)")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main())
