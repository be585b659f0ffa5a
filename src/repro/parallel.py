"""The one fan-out primitive for embarrassingly-parallel sweeps.

A chaos run is a pure function of (seed, plan): it constructs its own
:class:`~repro.sim.scheduler.Simulator`, whose fresh-run hooks reset every
process-global counter, so a worker process produces bit for bit the
report this process would have. Fanning out may change wall time, never
results.

:func:`parallel_map` is ``map(fn, items)``, lazy and in item order:

- **one pool per call, every item submitted up front.** Workers run ahead
  while the caller is still busy with the first results, so a caller that
  does serial work between results (the smoke gate shrinking a failure)
  overlaps it with the rest of the sweep. Workers are forked, so they run
  the code of this process as it stands.
- **in this process while it is measured.** Under a profile or trace hook,
  a ``sys.monitoring`` tool or ``tracemalloc``, every item runs here: a
  worker's calls and allocations are invisible to those tools, and
  profiles, heap peaks, coverage and the call audit must see every call
  and byte. Also when a pool cannot help (one item, one worker, one CPU)
  or cannot start (restricted environments).
- **a dead worker raises** ``BrokenProcessPool`` rather than hanging, and
  closing the iterator early cancels the items no worker has started.

The pool machinery is imported only when a pool starts: a measured run
never pays its megabyte of heap.

Callables and items must be picklable: module-level functions or small
objects.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from typing import Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity API


def _measured() -> bool:
    """Is something in this process watching its own calls or memory?"""
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or tracemalloc.is_tracing()):
        return True
    # 3.12+: cProfile and coverage may hook in through sys.monitoring.
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) for tool in range(6)
    )


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    processes: Optional[int],
) -> Iterator[R]:
    """``map(fn, items)`` — lazy, in item order — possibly across processes.

    ``processes=None`` sizes the pool to the CPUs this process may use;
    ``processes<=1``, fewer than two items, a measured process or a pool
    that fails to start run the items here instead, one per ``next``.
    """
    items = list(items)
    workers = min(_cpus() if processes is None else processes, len(items))
    executor = None
    if workers > 1 and not _measured():
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # A forked worker imports nothing again. The pool forks every
        # worker at its first submit, before it starts a thread of its own.
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        try:
            executor = ProcessPoolExecutor(workers, mp_context=context)
            futures = [executor.submit(fn, item) for item in items]
        except (ImportError, OSError):  # pragma: no cover - sandboxed envs
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            executor = None
    if executor is None:
        yield from map(fn, items)
        return
    try:
        for future in futures:
            yield future.result()
    finally:
        # The caller stopped early, or a result raised: drop what no
        # worker has started, and wait out what one has.
        executor.shutdown(cancel_futures=True)
