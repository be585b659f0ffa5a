"""``python3 -m bench {run,trace,agree}`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from bench import ROOT
from bench.inputs import DEFAULT_SEED, GENERATORS


def _add_run_options(parser: argparse.ArgumentParser, trace_default: int) -> None:
    parser.add_argument("--workload", choices=sorted(GENERATORS), default=None,
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=trace_default,
                        help="1 = traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every op count (tests use 0.02)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result file (default: bench/out/{run,trace}-seed<seed>.json)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    _add_run_options(commands.add_parser(
        "run", help="end-to-end metrics, untraced"), trace_default=0)
    _add_run_options(commands.add_parser(
        "trace", help="per-layer metrics: spans, profile, layer ladder"),
        trace_default=1)
    agree = commands.add_parser(
        "agree", help="compare two result files against the declared bounds")
    agree.add_argument("a")
    agree.add_argument("b")
    lap = commands.add_parser("lap")  # internal: one lap in this process
    lap.add_argument("--mode", required=True)
    lap.add_argument("--workload", required=True)
    lap.add_argument("--seed", type=int, required=True)
    lap.add_argument("--scale", type=float, required=True)
    lap.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if args.command == "agree":
        from bench.agree import agree as compare
        return compare(args.a, args.b)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2

    if args.command == "lap":
        if args.mode == "layers":
            from bench.layers import measure_all
            result = {"metrics": measure_all(args.seed)}
        else:
            from bench.lap import run_lap
            result = run_lap(args.workload, args.seed, args.scale, args.mode,
                             args.spawned_at)
        print(json.dumps(result))
        return 0

    from bench import runner
    seconds = args.seconds
    if seconds is None:
        seconds = runner.load_spec()["run_seconds"]
    workloads = [args.workload] if args.workload else [
        entry["name"] for entry in runner.load_spec()["workloads"]
    ]
    return runner.run(workloads, args.seed, seconds, args.scale,
                      traced=bool(args.trace), out_path=args.out)


if __name__ == "__main__":
    sys.exit(main())
