"""Named, seeded random streams.

Every source of randomness in the reproduction draws from a named stream so
that (a) runs are exactly reproducible under a master seed, and (b) changing
how one subsystem consumes randomness does not perturb another subsystem's
stream — experiments stay comparable across code changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created deterministically on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.master_seed, name))
        return self._streams[name]
