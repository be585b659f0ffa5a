"""Zipf key popularity and an open-loop Dynamo GET/PUT driver.

Real key traffic is skewed: a handful of keys take most of the requests
(the §6.1 shopping carts nobody closes). ``ZipfKeyGenerator`` draws keys
from a seeded zipf(θ) distribution over a keyspace that can be sized to
millions without per-draw cost growing with it — draws are O(log K) via
an inverse-CDF bisect, and ranks are scattered over the key names so the
hot set spreads across the ring instead of clustering on one arc.

The CDF is not stored whole. The generator keeps the exact cumulative
weights of the hottest ``_HOT`` ranks (at θ = 0.99 over a million keys
they take 80 % of the draws) and, past them, one checkpoint — the
cumulative weight — at the end of every ``_BLOCK`` ranks: ``_HOT + (K −
_HOT)/_BLOCK`` doubles, ≈ 1 MB instead of 8 MB at K = 10⁶. A hot draw is
one bisect of the prefix. A cold draw bisects the checkpoints, then
rebuilds that block's cumulative weights from the checkpoint before it
up to the drawn rank: at most ``_BLOCK`` ``pow`` calls and adds, about
3 µs on CPython 3.11 against 0.4 µs for a hot draw. Every cumulative
value is the same left-to-right float sum of the same ``1.0 / (rank +
1) ** theta`` terms the full array would hold, so each draw names
exactly the rank a bisect of the full array would.

``zipf_open_loop`` layers an open (Poisson) arrival process of GETs and
read-modify-write PUTs on a :class:`~repro.dynamo.cluster.DynamoClient`
— the traffic shape the ring-rebalance scenarios and the ``zipf_ring``
bench workload drive.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, islice, repeat, takewhile
from operator import truediv
from typing import Any, Dict, Generator, Iterator, Optional

from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator

#: Knuth's multiplicative-hash constant: coprime with any power-of-two
#: keyspace, so rank -> key id is a bijection that scatters the hot ranks.
_SCATTER = 2654435761

#: Ranks whose cumulative weights are kept exactly (the hot prefix).
_HOT = 1 << 16
#: Cold ranks per checkpoint: a cold draw rebuilds at most this many.
_BLOCK = 16


def _weights(theta: float, start: int, stop: int) -> Iterator[float]:
    """``1.0 / (rank + 1) ** theta`` for ranks ``start`` to ``stop - 1``,
    mapped in C. The prefix, the checkpoints and every rebuilt block sum
    these same terms left to right, which is what keeps draws exact."""
    return map(truediv, repeat(1.0), map(pow, range(start + 1, stop + 1), repeat(theta)))


class ZipfKeyGenerator:
    """Seeded zipf(θ) popularity over ``keyspace`` named keys.

    Rank ``r`` (0-based) carries weight ``1/(r+1)^theta``; ``theta=0``
    degenerates to uniform, ``theta≈1`` is the classic web skew. The
    rank→name mapping is a fixed bijective scatter, so two generators
    with the same parameters name the same keys (replay-stable) while
    adjacent ranks land far apart on the hash ring.
    """

    def __init__(
        self,
        rng: Any,
        keyspace: int = 1_000_000,
        theta: float = 0.99,
        prefix: str = "key",
    ) -> None:
        if keyspace < 1:
            raise SimulationError("zipf keyspace must be >= 1")
        if theta < 0:
            raise SimulationError("zipf theta must be >= 0")
        self.rng = rng
        self.keyspace = keyspace
        self.theta = theta
        self.prefix = prefix
        # Packed doubles: a list would hold a float object per value.
        # Zero weights pad the last block to full length without moving
        # the sum, so its checkpoint is the total.
        padding = -max(keyspace - _HOT, 0) % _BLOCK
        cumulative = accumulate(chain(_weights(theta, 0, keyspace), repeat(0.0, padding)))
        self._hot = array("d", islice(cumulative, _HOT))
        self._hot_top = self._hot[-1]
        # Checkpoint 0 is the prefix's end; the same running sum goes on,
        # and checkpoint b is its value at the end of cold block b - 1.
        self._checkpoints = array("d", [self._hot_top])
        self._checkpoints.extend(islice(cumulative, _BLOCK - 1, None, _BLOCK))
        self._total = self._checkpoints[-1]

    def rank(self) -> int:
        """Draw a 0-based popularity rank (0 is the hottest)."""
        target = self.rng.random() * self._total
        if target <= self._hot_top:
            return bisect_left(self._hot, target)
        checkpoints = self._checkpoints
        # The checkpoint ending the drawn block: >= 1, as the target is
        # above checkpoint 0.
        end = bisect_left(checkpoints, target)
        start = _HOT + (end - 1) * _BLOCK
        # Rebuild the block's cumulative weights from the checkpoint before
        # it and count the values below the target, stopping at the first
        # that is not: that count is the full CDF's bisect. The block's
        # last value is its checkpoint, not below the target, so the count
        # never runs past the block or (in a padded last block) the keyspace.
        rebuilt = accumulate(
            _weights(self.theta, start, start + _BLOCK), initial=checkpoints[end - 1]
        )
        return start - 1 + len(list(takewhile(target.__gt__, rebuilt)))

    def key_for_rank(self, rank: int) -> str:
        return f"{self.prefix}{(rank * _SCATTER) % self.keyspace}"

    def key(self) -> str:
        """Draw a key, zipf-popular by rank, scattered by name."""
        return self.key_for_rank(self.rank())

    def hot_keys(self, count: int) -> list:
        """The ``count`` most popular key names (for assertions/repair)."""
        return [self.key_for_rank(rank) for rank in range(min(count, self.keyspace))]


def zipf_open_loop(
    sim: Simulator,
    client: Any,
    keys: ZipfKeyGenerator,
    rate: float,
    get_fraction: float = 0.9,
    count: Optional[int] = None,
    until: Optional[float] = None,
    stream: str = "workload.zipf",
    stats: Optional[Dict[str, int]] = None,
) -> Generator[Any, Any, Dict[str, int]]:
    """An open-loop zipf GET/PUT driver against a Dynamo client.

    Requests arrive Poisson at ``rate``/s regardless of completion (open
    loop: a slow cluster builds a backlog instead of throttling the
    offered load). Each request draws a zipf key; a ``get_fraction``
    coin decides GET vs read-modify-write PUT (GET for context, then PUT
    — the §6.1 cart discipline, no blind writes). Failed quorums are
    counted, not raised: availability under reshaping is the measurement.

    ``stats`` (updated in place if given) counts gets/puts/failures and
    is also the return value.
    """
    from repro.dynamo.cluster import QuorumUnavailable
    from repro.errors import CrashedError, TimeoutError_
    from repro.net.rpc import RpcError

    if rate <= 0:
        raise SimulationError("zipf driver rate must be positive")
    if count is None and until is None:
        raise SimulationError("zipf_open_loop needs count or until")
    if not 0.0 <= get_fraction <= 1.0:
        raise SimulationError("get_fraction must be in [0, 1]")
    rng = sim.rng.stream(stream)
    counters = stats if stats is not None else {}
    for field in ("gets", "puts", "failed_gets", "failed_puts"):
        counters.setdefault(field, 0)
    put_seq = itertools.count(1)

    def one_request(key: str, is_get: bool) -> Generator[Any, Any, None]:
        try:
            if is_get:
                yield from client.get(key)
                counters["gets"] += 1
            else:
                result = yield from client.get(key)
                value = next(put_seq)
                yield from client.put(key, value, context=result.context)
                counters["puts"] += 1
        except (QuorumUnavailable, TimeoutError_, RpcError, CrashedError):
            counters["failed_gets" if is_get else "failed_puts"] += 1

    started = 0
    while count is None or started < count:
        yield Timeout(rng.expovariate(rate))
        if until is not None and sim.now > until:
            break
        key = keys.key()
        is_get = rng.random() < get_fraction
        sim.spawn(one_request(key, is_get), name=("zipf-%d", started))
        started += 1
    counters["requests"] = started
    return counters
