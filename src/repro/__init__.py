"""Reproduction of *Building on Quicksand* (Helland & Campbell, CIDR 2009).

The package models the paper's lineage of fault-tolerant systems and its
central contribution — operation-centric eventual consistency — on top of a
deterministic discrete-event simulator built from scratch:

- :mod:`repro.sim` — discrete-event kernel (clock, processes, RNG, metrics).
- :mod:`repro.net` — simulated message fabric with latency, loss, partitions.
- :mod:`repro.storage` — simulated disks, write-ahead log, snapshots.
- :mod:`repro.cluster` — gossiped membership views, the generic process pair.
- :mod:`repro.tandem` — Tandem NonStop circa 1984 (DP1, synchronous
  per-WRITE checkpointing) and circa 1986 (DP2, log-combined checkpointing
  with group commit).
- :mod:`repro.logship` — asynchronous log shipping and takeover semantics.
- :mod:`repro.core` — operations with uniquifiers, replicas, reconciliation,
  anti-entropy, ACID 2.0 property checking, escrow locking, probabilistic
  business rules, and the memories/guesses/apologies ledger.
- :mod:`repro.dynamo` — a Dynamo-style replicated blob store (ring, vector
  clocks, sloppy quorum, hinted handoff).
- :mod:`repro.cart` — the shopping-cart application layered on Dynamo.
- :mod:`repro.bank` — bank accounts, check clearing, ledgers and statements.
- :mod:`repro.resources` — over-provisioning vs. over-booking, the
  seat-reservation pattern, fungible resource pools.
- :mod:`repro.workload`, :mod:`repro.analysis` — experiment harness support.

Quickstart::

    from repro.sim import Simulator, Timeout

    sim = Simulator(seed=7)

    def hello(sim):
        yield Timeout(5.0)
        print("the time is", sim.now)

    sim.spawn(hello(sim), name="hello")
    sim.run()
"""

from repro._version import __version__
from repro.errors import (
    QuicksandError,
    SimulationError,
    CrashedError,
    TimeoutError_,
    RuleViolation,
    EscrowOverflow,
)

__all__ = [
    "__version__",
    "QuicksandError",
    "SimulationError",
    "CrashedError",
    "TimeoutError_",
    "RuleViolation",
    "EscrowOverflow",
]
