"""Managing resources with asynchrony (§7).

- :class:`InventorySystem` — replicas selling shared inventory while
  "sometimes incommunicado": a slider ``theta`` moves between strict
  over-provisioning (θ=0: private quotas, never apologize, decline more)
  and full over-booking (θ=1: sell against believed global remaining,
  book more, sometimes cannot deliver) — §7.1's dynamic spectrum.
  Duplicate requests reaching two replicas are detected at reconciliation
  by their uniquifier and the redundant units returned (§7.5).
- :class:`SeatMap` — the §7.3 seat-reservation pattern: three states,
  database-transaction transitions, and the pending-timeout cleanup that
  bounds how long untrusted agents can hold inventory hostage.
- :class:`FungiblePool` — §7.4: interchangeable units ("a king non-smoking
  room", "a pork-belly"), idempotent grants by uniquifier.
"""

from repro.resources.inventory import AllocationOutcome, InventorySystem
from repro.resources.seats import SeatMap, SeatState
from repro.resources.fungible import FungiblePool

__all__ = [
    "AllocationOutcome",
    "InventorySystem",
    "SeatMap",
    "SeatState",
    "FungiblePool",
]
