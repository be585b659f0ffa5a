"""Deterministic discrete-event simulation kernel.

This is the substrate every system in the reproduction runs on. There is no
wall clock and there are no threads: time is a float that only advances when
the event heap says so, and all concurrency is cooperative generator-based
processes. Determinism matters because the paper's claims are about
*probabilities* of loss and violation — we need experiments that are exactly
reproducible under a seed.

Public surface:

- :class:`Simulator` — the event loop and clock.
- :class:`Process` — a running generator; yield effects to wait.
- :class:`Event` — a one-shot waitable; also the return channel for values.
- Effects: :class:`Timeout`, :class:`AllOf` (plus yielding an
  :class:`Event` or :class:`Process` directly); :func:`pacing`, the
  jittered pauses of a periodic loop.
- :class:`RngRegistry` — named, seeded random streams.
- :mod:`repro.sim.metrics` — counters, histograms, time series.
- :mod:`repro.sim.trace` — structured trace log.
"""

from repro.sim.events import Event, Timeout, AllOf, pacing
from repro.sim.process import Process
from repro.sim.scheduler import Simulator
from repro.sim.random import RngRegistry
from repro.sim.metrics import Counter, Histogram, MetricsRegistry
from repro.sim.trace import TraceLog, TraceRecord
from repro.sim.sync import Mailbox, Lock

__all__ = [
    "Mailbox",
    "Lock",
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "AllOf",
    "pacing",
    "RngRegistry",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TraceLog",
    "TraceRecord",
]
