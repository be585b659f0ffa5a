"""Zipf key popularity and an open-loop Dynamo GET/PUT driver.

Real key traffic is skewed: a handful of keys take most of the requests
(the §6.1 shopping carts nobody closes). ``ZipfKeyGenerator`` draws keys
from a seeded zipf(θ) distribution over a keyspace that can be sized to
millions — or billions — without its set-up, memory or per-draw cost
growing with it, and ranks are scattered over the key names so the hot
set spreads across the ring instead of clustering on one arc.

Draws use rejection-inversion (W. Hörmann and G. Derflinger, "Rejection-
inversion to generate variates from monotone discrete distributions",
*ACM TOMACS* 6(3), 1996; the algorithm of Apache Commons RNG's
``RejectionInversionZipfSampler``). With h(x) = x^−θ and its integral
H(x) = (x^(1−θ) − 1)/(1 − θ) (ln x at θ = 1), a uniform point u between
H(3/2) − 1 and H(K + ½) is inverted to x = H⁻¹(u) and rounded to the
rank k = ⌊x + ½⌋. The stretch of u that rounds to k is at least h(k)
long; only its top h(k) is accepted, so P(k) ∝ k^−θ exactly, and a u in
the rest (about one draw in a thousand) is drawn again. The generator
holds four floats: no table, nothing summed over the keyspace. The
ranks follow zipf(θ) exactly in distribution; they are not the ranks an
inverse-CDF bisect would give for the same uniforms.

``zipf_open_loop`` layers an open (Poisson) arrival process of GETs and
read-modify-write PUTs on a :class:`~repro.dynamo.cluster.DynamoClient`
— the traffic shape the ring-rebalance scenarios and the ``zipf_ring``
bench workload drive. Every draw on this path is ``rng.random()``, the
one ``random.Random`` method whose stream CPython keeps stable.
"""

from __future__ import annotations

import itertools
from math import exp, expm1, inf, log, log1p, nextafter
from typing import Any, Dict, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator

#: Knuth's multiplicative-hash constant: coprime with any power-of-two
#: keyspace, so rank -> key id is a bijection that scatters the hot ranks.
_SCATTER = 2654435761

#: The float just above −1: ``log1p`` of −1 itself is a domain error.
_ABOVE_MINUS_ONE = nextafter(-1.0, 0.0)


def _h_integral(x: float, one_minus_theta: float) -> float:
    """H(x) = (x^(1−θ) − 1)/(1 − θ) as ``expm1(t)/t · ln x``, with the
    series of ``expm1(t)/t`` near t = 0, so θ = 1 gives ln x."""
    log_x = log(x)
    t = one_minus_theta * log_x
    if abs(t) > 1e-8:
        return expm1(t) / t * log_x
    return (1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0))) * log_x


def _h_integral_inverse(u: float, one_minus_theta: float) -> float:
    """H⁻¹(u) = exp(``log1p(t)/t`` · u) with t = (1 − θ)·u clamped at
    −1, and the series of ``log1p(t)/t`` near t = 0."""
    t = max(u * one_minus_theta, _ABOVE_MINUS_ONE)
    if abs(t) > 1e-8:
        return exp(log1p(t) / t * u)
    return exp((1.0 - t * (0.5 - t * (1.0 / 3.0 - t / 4.0))) * u)


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
        if isinstance(keyspace, bool) or not isinstance(keyspace, int) or keyspace < 1:
            raise SimulationError(f"zipf keyspace must be an int >= 1, not {keyspace!r}")
        if not 0 <= theta < inf:
            raise SimulationError(f"zipf theta must be finite and >= 0, not {theta!r}")
        self.rng = rng
        self.keyspace = keyspace
        self.theta = theta
        self.prefix = prefix
        one_minus_theta = self._one_minus_theta = 1.0 - theta
        self._h_keyspace = _h_integral(keyspace + 0.5, one_minus_theta)
        self._h_span = _h_integral(1.5, one_minus_theta) - 1.0 - self._h_keyspace
        # A draw whose x lies at most s below its rank k is inside k's
        # accepted stretch, so it is taken without evaluating H(k + ½).
        self._s = 2.0 - _h_integral_inverse(
            _h_integral(2.5, one_minus_theta) - 2.0 ** -theta, one_minus_theta
        )

    def rank(self) -> int:
        """Draw a 0-based popularity rank (0 is the hottest)."""
        one_minus_theta = self._one_minus_theta
        while True:
            u = self._h_keyspace + self.rng.random() * self._h_span
            x = _h_integral_inverse(u, one_minus_theta)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.keyspace:
                k = self.keyspace
            if k - x <= self._s or u >= (
                _h_integral(k + 0.5, one_minus_theta) - k ** -self.theta
            ):
                return k - 1

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
        yield Timeout(-log(1.0 - rng.random()) / rate)
        if until is not None and sim.now > until:
            break
        key = keys.key()
        is_get = rng.random() < get_fraction
        sim.spawn(one_request(key, is_get), name=("zipf-%d", started))
        started += 1
    counters["requests"] = started
    return counters
