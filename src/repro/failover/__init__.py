"""Failure detection and fenced takeover (§2–3).

The paper's takeover story rests on an uncomfortable fact: a backup
**cannot distinguish a dead primary from a slow one**. Everything in
this package flows from taking that seriously instead of modelling it
away:

- :func:`heartbeats` — a node's loop, on its own endpoint, that casts
  periodic heartbeats over the (partitionable, lossy) fabric. Silence
  is the only failure signal anyone gets.
- :class:`FailureDetector` — accrues suspicion from *observed heartbeat
  gaps*, never from registry truth. Two variants:
  :class:`FixedTimeoutDetector` (suspicion = gap / timeout) and
  :class:`PhiAccrualDetector` (Hayashibara-style phi over the observed
  inter-arrival distribution). A conviction is a guess; when a convicted
  node later speaks, the detector records the contradiction — the
  measured false-takeover rate of experiment E14.
- :class:`FailoverController` — the whole stack: monitor, heartbeats,
  detector, and a monotonically increasing **epoch (fencing) token** per
  regime; a conviction of the primary promotes the successor under a
  fresh one. The token, not the conviction, is what makes a wrong guess
  safe: apply paths reject traffic from older epochs.

Everything is deterministic on sim time: no detector process draws
RNG, and none of it exists unless explicitly installed — default runs
(and the golden traces) are byte-for-byte unchanged.
"""

from repro.failover.detector import (
    FailureDetector,
    FixedTimeoutDetector,
    PhiAccrualDetector,
)
from repro.failover.controller import (
    HEARTBEAT_INTERVAL,
    FailoverController,
    heartbeats,
)

__all__ = [
    "FailureDetector",
    "FixedTimeoutDetector",
    "PhiAccrualDetector",
    "HEARTBEAT_INTERVAL",
    "heartbeats",
    "FailoverController",
]
