"""Configuration for the Tandem models."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.resilience import RetryPolicy


class DPMode(str, enum.Enum):
    """Which disk-process generation a pair runs."""

    DP1 = "dp1"  # circa 1984: synchronous per-WRITE checkpointing
    DP2 = "dp2"  # circa 1986: log-combined checkpointing, group commit


@dataclass
class TandemConfig:
    """Timing and topology knobs.

    Defaults model a mid-80s shared-nothing box: ~0.1 ms interprocessor
    messages, ~5 ms disk service. The absolute values matter less than the
    ratios (the paper's claims are about orderings and rough factors).
    """

    mode: DPMode = DPMode.DP2
    num_dps: int = 2
    message_latency = 0.0001  # one-way CPU-to-CPU message, seconds
    group_commit_timer = 0.002  # DP2: how long the bus waits
    rpc_timeout = 0.5
    rpc_retries = 8

    def __post_init__(self) -> None:
        self.mode = DPMode(self.mode)
        if self.num_dps < 1:
            raise SimulationError("need at least one disk process pair")

    def call_policy(self, retries: Optional[int] = None) -> RetryPolicy:
        """The RPC discipline derived from the timing knobs: Tandem's
        requester-based recovery retries on a fixed timer (the takeover
        machinery, not backoff, handles a dead pair). ``retries``
        overrides the configured count (0 = single attempt)."""
        count = self.rpc_retries if retries is None else retries
        cache = self.__dict__.setdefault("_policy_cache", {})
        policy = cache.get(count)
        if policy is None or policy.timeout != self.rpc_timeout:
            policy = cache[count] = RetryPolicy(
                max_attempts=count + 1, timeout=self.rpc_timeout
            )
        return policy
