"""The multiprocessing executor for embarrassingly-parallel sweeps.

:meth:`repro.chaos.runner.ChaosRunner.sweep` is a loop of independent
seeded runs, each deterministic in isolation (every run constructs its own
:class:`~repro.sim.scheduler.Simulator`, which resets the process-global
counters via the fresh-run hooks). That makes fan-out safe: a worker
process produces bit-for-bit the report the parent would have, so the
only thing parallelism may change is wall time, never results.

``parallel_map`` is deliberately conservative:

- order-preserving (``pool.map``, not ``imap_unordered``);
- serial fallback whenever a pool cannot help (one item, one worker,
  one CPU) or cannot be created (restricted environments) — callers
  never need to care;
- ``chunksize=1`` so long-tailed items (a shrinking run) do not convoy
  behind each other.

Callables and items must be picklable: module-level functions or small
callable objects, which is how the call site uses it.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_processes() -> int:
    """Worker count when the caller asks for auto (``processes=None``)."""
    return os.cpu_count() or 1


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: Optional[int] = None,
) -> List[R]:
    """``[fn(item) for item in items]``, possibly across processes.

    ``processes=None`` auto-sizes to the CPU count; ``processes<=1`` (or
    fewer than two items, or a pool that fails to start) runs serially in
    this process. Results are returned in item order either way.
    """
    items = list(items)
    if processes is None:
        processes = default_processes()
    processes = min(processes, len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    try:
        # fork keeps the already-imported modules; spawn (the only option
        # on some platforms) re-imports them in each worker. Both are
        # fine for determinism — workers build fresh Simulators.
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes) as pool:
            return pool.map(fn, items, chunksize=1)
    except (OSError, ValueError):  # pragma: no cover - sandboxed envs
        return [fn(item) for item in items]
