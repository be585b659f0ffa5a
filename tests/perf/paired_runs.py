"""The paired-run rule as a command: parent against change, alternating.

    python tests/perf/paired_runs.py PARENT CHANGE --pairs 10 --seeds 20090104,777

``PARENT`` and ``CHANGE`` are two checkouts of this repository (a clone of
the parent commit and the working tree, say). For every seed and pair the
script runs ``python3 -m bench run --seed S --out FILE`` once in each —
parent first in odd pairs, change first in even ones, one process at a
time — and keeps every result file under ``--out-dir``. It then prints,
per seed and workload:

- for each end-to-end metric of ``BENCHMARK.json``: every run in pair
  order, q1 / median / q3 per side, the pairs the change won (ties count
  for neither), the gap between the medians against the parent's own
  interquartile spread, and the verdict —

  * ``gain``: the change won at least nine tenths of the pairs *and* its
    median is better by more than the parent's q3 - q1;
  * ``worse``: its median is worse by more than the metric's bound;
  * ``unresolved``: neither, and either side's spread is wider than the
    bound — unless every run of the change beats every run of the parent;
  * ``within bound``: otherwise;

- the largest ``failed_op_share`` either side saw;
- whether the exact fields (the ones ``bench_exact.json`` pins: counts,
  simulated latencies, ``sim_digest`` and the heap lap's digest) agree
  across every run of both, and if not, each differing field with its
  parent -> change readings (a PR that moves simulated bytes on purpose
  pastes these as its evidence).

``--report-only`` re-prints from the files of an earlier invocation.
Exit status: 1 if any verdict is ``worse``, a failure share rose or an
exact field moved; 0 otherwise.

    python tests/perf/paired_runs.py PARENT CHANGE --heap-only --seeds 20090104,777

answers the heap question alone, in seconds: per seed and workload it
runs one ``python3 -m bench lap --mode heap`` in each checkout, at the
runner's memory-lap scale and hash seed, and prints both
``peak_heap_mb`` readings, their exact delta and verdict, and the lap's
``sim_digest``. tracemalloc is deterministic, so one pair is the whole
answer. It exits 1 if the heap is worse by more than its bound or the
digest moved. Stdlib only; imports nothing from the
repository but its sibling ``check_bench_exact``, so it runs under any
interpreter and against any two commits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check_bench_exact import lookup

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
#: The scale of the runner's memory lap (``bench.runner.HEAP_SCALE``).
HEAP_SCALE = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Alternating parent/change runs of `python3 -m bench run`.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="20090104,777",
                        help="comma-separated workload seeds")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: BENCHMARK.json's)")
    parser.add_argument("--out-dir", type=Path,
                        help="where result files go (default: a new temp dir)")
    parser.add_argument("--report-only", action="store_true",
                        help="run nothing; report from the files in --out-dir")
    parser.add_argument("--heap-only", action="store_true",
                        help="one heap lap per side, seed and workload; no files")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.report_only and args.out_dir is None:
        parser.error("--report-only needs --out-dir")
    if args.report_only and args.heap_only:
        parser.error("--heap-only runs its laps; it has nothing to re-print")
    try:
        args.seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error("--seeds takes comma-separated integers")
    return args


def _result_file(out_dir, side, seed, pair):
    return out_dir / f"{side}-seed{seed}-pair{pair:02d}.json"


def _run_all(args):
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    for seed in args.seeds:
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                out = _result_file(args.out_dir, side, seed, pair)
                command = [sys.executable, "-m", "bench", "run",
                           "--seed", str(seed), "--out", str(out)]
                if args.workload:
                    command += ["--workload", args.workload]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                print(f"# seed {seed} pair {pair}/{args.pairs}: {side}",
                      file=sys.stderr, flush=True)
                subprocess.run(command, cwd=checkouts[side], check=True,
                               stdout=subprocess.DEVNULL)


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, lower_is_better, bound):
    """The section-8 reading of one metric on one workload: (verdict,
    pairs won, pairs tied, median gap in the better direction, parent's
    interquartile spread). ``parent[i]`` and ``change[i]`` are one pair."""
    sign = 1.0 if lower_is_better else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    tied = sum(p == c for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = _quartiles(parent)
    c_q1, c_median, c_q3 = _quartiles(change)
    gap = sign * (p_median - c_median)
    spread = p_q3 - p_q1
    scale = abs(p_median) or 1.0
    if lower_is_better:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if won >= 0.9 * len(parent) and gap > spread:
        reading = "gain"
    elif -gap > bound * scale:
        reading = "worse"
    elif max(spread, c_q3 - c_q1) > bound * scale and not every_run_better:
        reading = "unresolved"
    else:
        reading = "within bound"
    return reading, won, tied, gap, spread


def _readings(values):
    """One side's readings of an exact field, as printed: the value when
    every run agrees, else each distinct one."""
    if len(values) == 1:
        return next(iter(values))
    return f"{len(values)} readings: " + " | ".join(sorted(values))


def exact_differences(runs, workload, fields):
    """``[(field, parent readings, change readings)]`` for every exact
    field whose runs do not all agree, across both sides."""
    differ = []
    for field in fields:
        readings = {
            side: {json.dumps(lookup(run[workload], field)) for run in runs[side]}
            for side in SIDES
        }
        if len(readings["parent"] | readings["change"]) > 1:
            differ.append((field, _readings(readings["parent"]),
                           _readings(readings["change"])))
    return differ


def _report(args):
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    exact_fields = sorted({
        field
        for fields in json.loads((HERE / "bench_exact.json").read_text()).values()
        for field in fields
    })
    failed = False
    for seed in args.seeds:
        runs = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in SIDES:
                with open(_result_file(args.out_dir, side, seed, pair)) as handle:
                    runs[side].append(json.load(handle)["results"])
        workloads = [w["name"] for w in spec["workloads"] if w["name"] in runs["parent"][0]]
        for workload in workloads:
            print(f"\n== {workload}  seed {seed}  {args.pairs} pairs "
                  "(odd pairs ran the parent first)")
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                sides = {
                    side: [run[workload]["metrics"][name]["value"] for run in runs[side]]
                    for side in SIDES
                }
                reading, won, tied, gap, spread = verdict(
                    sides["parent"], sides["change"],
                    metric["better"] == "lower", bound,
                )
                failed |= reading == "worse"
                print(f"  {name} [{metric['unit']}, {metric['better']} is better, "
                      f"bound {bound:.0%}]")
                for side in SIDES:
                    q1, median, q3 = _quartiles(sides[side])
                    print(f"    {side:6s} " + " ".join(f"{v:.6g}" for v in sides[side]))
                    print(f"    {side:6s} q1 {q1:.6g}  median {median:.6g}  q3 {q3:.6g}")
                p_median = statistics.median(sides["parent"])
                share = gap / p_median if p_median else 0.0
                print(f"    change won {won}/{args.pairs} pairs ({tied} tied); "
                      f"median gap {gap:.6g} ({share:+.1%} of the parent's median, "
                      f"positive is better) against the parent's q3-q1 {spread:.6g}"
                      f" -> {reading}")
            shares = {
                side: max(run[workload]["failed_op_share"] for run in runs[side])
                for side in SIDES
            }
            failed |= shares["change"] > shares["parent"]
            print(f"  failed_op_share  parent {shares['parent']:g}  "
                  f"change {shares['change']:g}")
            differ = exact_differences(runs, workload, exact_fields)
            failed |= bool(differ)
            print(f"  exact fields ({', '.join(exact_fields)}): "
                  + (f"{len(differ)} DIFFER" if differ else "agree in all runs"))
            for field, parent, change in differ:
                print(f"    {field}: parent {parent} -> change {change}")
    return 1 if failed else 0


def _heap_lap(checkout, workload, seed):
    """One memory lap in ``checkout``, spawned as the bench runner spawns it."""
    command = [sys.executable, "-m", "bench", "lap", "--mode", "heap",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(HEAP_SCALE), "--spawned-at", repr(time.time())]
    done = subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(done.stdout.strip().splitlines()[-1])


def heap_pair(workload, seed, parent, change, bound):
    """Print one pair of heap laps; True if the change's peak is worse
    than the parent's by more than ``bound`` or its digest moved."""
    before, after = parent["peak_heap_mb"], change["peak_heap_mb"]
    delta = after - before
    reading = verdict([before], [after], True, bound)[0]
    print(f"\n== {workload}  seed {seed}  heap lap at scale {HEAP_SCALE}")
    print(f"  peak_heap_mb  parent {before:.6f}  change {after:.6f}  "
          f"delta {delta:+.6f} MB ({delta / before:+.1%}) -> {reading}")
    digest = parent["sim_digest"]
    moved = change["sim_digest"] != digest
    print("  sim_digest    " + (f"parent {digest} -> change {change['sim_digest']}"
                                if moved else f"{digest} on both sides"))
    return reading == "worse" or moved


def _heap_only(args):
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_heap_mb")
    workloads = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    failed = False
    for seed in args.seeds:
        for workload in workloads:
            laps = {}
            for side, checkout in zip(SIDES, (args.parent, args.change)):
                print(f"# seed {seed} {workload}: {side}", file=sys.stderr, flush=True)
                laps[side] = _heap_lap(checkout, workload, seed)
            failed |= heap_pair(workload, seed, laps["parent"], laps["change"], bound)
    return 1 if failed else 0


def main(argv):
    args = _parse(argv)
    if args.heap_only:
        return _heap_only(args)
    if not args.report_only:
        if args.out_dir is None:
            args.out_dir = Path(tempfile.mkdtemp(prefix="paired-runs-"))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        _run_all(args)
    print(f"# result files: {args.out_dir}", file=sys.stderr)
    return _report(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
