"""One lap of one workload, in a process of its own.

``bench.runner`` spawns ``python3 -m bench lap …`` once per repeat with
``PYTHONHASHSEED=0``, so every repeat starts from the same heap, the same
hash order and cold module state — and ``setup_s`` honestly includes
interpreter start and imports. The lap prints one JSON object.

Modes:

- ``timed``   — untraced: set-up, ``gc.collect()``, the timed section.
- ``heap``    — the same under ``tracemalloc`` (never used for timing).
- ``spans``   — bench-owned span wrappers recording during the run.
- ``profile`` — ``cProfile`` around the timed section only.
"""

from __future__ import annotations

import cProfile
import gc
import time
import tracemalloc
from typing import Any, Dict

from bench import inputs as bench_inputs
from bench import tracing
from bench.workloads import WORKLOADS

def run_lap(workload: str, seed: int, scale: float, mode: str,
            spawned_at: float) -> Dict[str, Any]:
    """``spawned_at`` is the parent's ``time.time()`` just before it
    started this process: the zero point of ``setup_s``."""
    if mode == "heap":
        # After the imports: module code is a constant that would dilute
        # the data structures this metric exists to watch.
        tracemalloc.start()

    recorder = None
    if mode == "spans":
        # Before the build: handlers close over module functions.
        recorder = tracing.SpanRecorder()
        recorder.install()

    generated = bench_inputs.generate(workload, seed, scale)
    instance = WORKLOADS[workload](generated)
    gc.collect()
    setup_s = time.time() - spawned_at

    profiler = None
    if recorder is not None:
        recorder.enabled = True
    started = time.perf_counter()
    if mode == "profile":
        profiler = cProfile.Profile()
        profiler.runcall(instance.run)
    else:
        instance.run()
    timed_s = time.perf_counter() - started
    if recorder is not None:
        recorder.enabled = False

    lap: Dict[str, Any] = {
        "workload": workload, "seed": seed, "scale": scale, "mode": mode,
        "inputs": bench_inputs.fingerprint(generated),
        "setup_s": setup_s, "timed_s": timed_s,
    }
    if mode == "heap":
        lap["peak_heap_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    lap.update(instance.finish())
    lap["host_us_per_op"] = timed_s / lap["attempted"] * 1e6
    if recorder is not None:
        lap["spans"] = recorder.summary()
        lap["span_sim_events"] = recorder.sim_events
    if profiler is not None:
        lap["profile"] = tracing.fold_profile(profiler)
    return lap
