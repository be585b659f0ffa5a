"""Orchestration: spawn laps, take medians, print and record results.

One *run* of one workload is what the driver contract calls a run:
repeat identical timed laps (fresh process each) until ``--seconds`` of
timed section have accumulated, then one memory lap at quarter scale.
A *traced* run adds a span lap, a cProfile lap and the layer ladder.
End-to-end numbers only ever come from untraced laps.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from bench import OUT_DIR, ROOT

SPEC_PATH = ROOT / "BENCHMARK.json"
MIN_LAPS = 3
MAX_LAPS = 9
HEAP_SCALE = 0.25
LAP_TIMEOUT_S = 170

#: Reported by every untraced run and compared *exactly* by ``agree``:
#: simulated statistics and counts cannot move under a pure speed-up.
EXACT_FIELDS = ("ops_per_lap", "failed_per_lap", "failed_op_share", "events",
                "sim_p50_ms", "sim_p99_ms", "sim_digest")

#: Per-workload counts read from the traced workload's own counters
#: (zero where the workload never touches the layer, or — chaos_smoke —
#: where its simulators are not reachable from outside).
WORKLOAD_COUNTERS = {
    "dynamo.versions_moved": "dynamo.rebalance_versions_moved",
    "dynamo.hints_delivered": "dynamo.hints_delivered",
    "dynamo.read_repairs": "dynamo.read_repairs",
    "dynamo.sibling_gets": "dynamo.sibling_gets",
}


class LapFailed(RuntimeError):
    """A lap process exited non-zero or printed no result."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def machine_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn_lap(mode: str, workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """Run one lap in a fresh interpreter and return what it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, "-m", "bench", "lap", "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=LAP_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise LapFailed(
            f"{mode} lap of {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and the raw samples of one timing."""
    ordered = list(samples)
    quartiles = (
        statistics.quantiles(ordered, n=4) if len(ordered) > 1
        else [ordered[0]] * 3
    )
    return {
        "value": statistics.median(ordered),
        "samples": ordered,
        "n": len(ordered),
        "quartiles": quartiles,
    }


# ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric, with its raw samples."""
    laps: List[Dict[str, Any]] = []
    while len(laps) < MIN_LAPS or (
        sum(lap["timed_s"] for lap in laps) < seconds and len(laps) < MAX_LAPS
    ):
        laps.append(spawn_lap("timed", workload, seed, scale))
    heap = spawn_lap("heap", workload, seed, scale * HEAP_SCALE)
    first = laps[0]
    repeats = all(lap["sim_digest"] == first["sim_digest"] for lap in laps)
    attempted = sum(lap["attempted"] for lap in laps)
    failed = sum(lap["failed"] for lap in laps)
    metrics = {
        "setup_s": summarize([lap["setup_s"] for lap in laps]),
        "host_us_per_op": summarize([lap["host_us_per_op"] for lap in laps]),
        "peak_heap_mb": summarize([heap["peak_heap_mb"]]),
    }
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "seconds_asked": seconds,
        "timed_s": [lap["timed_s"] for lap in laps],
        "inputs": first["inputs"],
        "correct": repeats and heap["correct"] and all(lap["correct"] for lap in laps),
        "digest_repeats": repeats,
        "checks": sorted({lap["check"] for lap in laps}),
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "ops_per_lap": first["attempted"],
        "failed_per_lap": first["failed"],
        "events": first.get("events"),
        "sim_p50_ms": first.get("sim_p50_ms"),
        "sim_p99_ms": first.get("sim_p99_ms"),
        "sim_digest": first["sim_digest"],
        "heap_lap": {"scale": heap["scale"], "ops": heap["attempted"],
                     "sim_digest": heap["sim_digest"]},
        "extras": first.get("extras", {}),
        "metrics": metrics,
    }


def trace_workload(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """The traced run: every per-layer metric, plus the trace file."""
    plain = spawn_lap("timed", workload, seed, scale)
    spans = spawn_lap("spans", workload, seed, scale)
    profile = spawn_lap("profile", workload, seed, scale)
    ladder = spawn_lap("layers", workload, seed, scale)
    ops = plain["attempted"]
    by_name = spans["spans"]["by_name"]

    def span_calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    counters = plain.get("counters", {})
    metrics: Dict[str, float] = dict(ladder["metrics"])
    metrics["sim.events"] = spans["span_sim_events"]
    metrics["net.msgs_per_op"] = span_calls("repro.net.network.Network.send") / ops
    metrics["dynamo.ring_hash_calls_per_op"] = (
        span_calls("repro.dynamo.ring.ring_hash") / ops
    )
    for name, counter in WORKLOAD_COUNTERS.items():
        metrics[name] = counters.get(counter, 0.0)
    metrics["cart.blob_ops_p99"] = plain.get("extras", {}).get("blob_ops_p99", 0.0)
    for layer, bucket in profile["profile"]["layers"].items():
        metrics[f"layer.{layer}.self_frac"] = bucket["self_frac"]
    metrics["trace_overhead_x"] = spans["timed_s"] / plain["timed_s"]

    digests = {lap["sim_digest"] for lap in (plain, spans, profile)}
    trace = {
        "workload": workload, "seed": seed, "scale": scale,
        "machine": machine_facts(),
        "untraced_timed_s": plain["timed_s"],
        "trace_overhead_x": metrics["trace_overhead_x"],
        "profile_overhead_x": profile["timed_s"] / plain["timed_s"],
        "spans": spans["spans"],
        "profile": profile["profile"],
        "per_layer": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}.json"
    with open(trace_path, "w") as handle:
        json.dump(trace, handle, indent=1)
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "correct": len(digests) == 1
        and all(lap["correct"] for lap in (plain, spans, profile)),
        "digest_repeats": len(digests) == 1,
        "checks": sorted({lap["check"] for lap in (plain, spans, profile)}),
        "attempted": ops,
        "failed": plain["failed"],
        "sim_digest": plain["sim_digest"],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "metrics": {name: {"value": value, "n": 1} for name, value in metrics.items()},
    }


# ----------------------------------------------------------------------


def driver_line(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    """The contract's last line: exactly the declared metrics, by name."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            entry["name"]: {
                "value": result["metrics"][entry["name"]]["value"],
                "unit": entry["unit"],
            }
            for entry in declared
        },
    })


def print_result(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"== {result['workload']} seed={result['seed']} scale={result['scale']} "
          f"[{verdict}] {'; '.join(result['checks'])}")
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        spread = ""
        if metric["n"] > 1:
            q1, _q2, q3 = metric["quartiles"]
            spread = f"  q1..q3 {q1:.6g}..{q3:.6g}"
        print(f"  {entry['name']:<42} {metric['value']:>14.6g} {entry['unit']:<6}"
              f" n={metric['n']}{spread}")
    for field in EXACT_FIELDS:
        if result.get(field) is not None:
            print(f"  {field:<42} {result[field]!s:>14}")


def run(workloads: Sequence[str], seed: int, seconds: float, scale: float,
        traced: bool, out_path: Optional[str]) -> int:
    spec = load_spec()
    declared = spec["per_layer" if traced else "end_to_end"]
    results: Dict[str, Any] = {}
    lines = []
    for workload in workloads:
        result = (trace_workload(workload, seed, scale) if traced
                  else run_workload(workload, seed, seconds, scale))
        results[workload] = result
        print_result(result, declared)
        lines.append(driver_line(result, declared))
    OUT_DIR.mkdir(exist_ok=True)
    path = out_path or str(
        OUT_DIR / f"{'trace' if traced else 'run'}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"schema": 1, "traced": traced, "machine": machine_facts(),
                   "results": results}, handle, indent=1)
    print(f"results -> {path}")
    for line in lines:  # the driver reads the last line
        print(line)
    return 0
