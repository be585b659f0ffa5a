"""The rejection-inversion zipf sampler against the exact pmf.

``ZipfKeyGenerator.rank`` is exact in distribution: rank ``r`` comes up
with probability ``(r+1)^-θ / Σ k^-θ``. The χ² statistics below are
taken at fixed seeds, so each one is a fixed number; each bound is the
0.999 quantile of its χ² distribution, which a sampler off by one rank
or with a biased acceptance test overshoots by orders of magnitude.
"""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import pytest

from repro.workload import ZipfKeyGenerator
from repro.workload.zipf import _h_integral, _h_integral_inverse

KEYSPACES = [7, 10, 50, 200, 1000]
THETAS = [0, 0.5, 0.99, 1, 1.3, 3]
DRAWS = 40_000


def exact_pmf(keyspace, theta):
    weights = [1.0 / (rank + 1) ** theta for rank in range(keyspace)]
    total = math.fsum(weights)
    return [weight / total for weight in weights]


def chi2_999(df):
    """The χ² distribution's 0.999 quantile (Wilson–Hilferty)."""
    z = 3.090232306167813  # the standard normal's 0.999 quantile
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def chi2(counts, pmf, draws):
    """Pearson's statistic and its degrees of freedom, with the tail
    ranks expected fewer than 5 times pooled into one cell."""
    cells, pooled_seen, pooled_want = [], 0, 0.0
    for rank, p in enumerate(pmf):
        if draws * p >= 5:
            cells.append((counts[rank], draws * p))
        else:
            pooled_seen += counts[rank]
            pooled_want += draws * p
    if pooled_want:
        cells.append((pooled_seen, pooled_want))
    return sum((seen - want) ** 2 / want for seen, want in cells), len(cells) - 1


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("keyspace", KEYSPACES)
def test_draws_fit_the_exact_pmf(keyspace, theta):
    generator = ZipfKeyGenerator(random.Random(keyspace), keyspace, theta)
    counts = Counter(generator.rank() for _ in range(DRAWS))
    assert set(counts) <= set(range(keyspace))
    statistic, df = chi2(counts, exact_pmf(keyspace, theta), DRAWS)
    assert statistic <= chi2_999(df), f"χ² {statistic:.1f} on {df} df"


class _Replay:
    """An rng that hands out a fixed sequence of ``random()`` values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def h_integral_reference(x, theta):
    """H(x) = (x^(1−θ) − 1)/(1 − θ), ln x at θ = 1, to 50 digits."""
    with localcontext() as context:
        context.prec = 50
        x, one_minus_theta = Decimal(x), 1 - Decimal(theta)
        if not one_minus_theta:
            return float(x.ln())
        return float(((one_minus_theta * x.ln()).exp() - 1) / one_minus_theta)


@pytest.mark.parametrize("theta", [1 - 1e-9, 1, 1 + 1e-9])
def test_the_series_switch_is_continuous_around_theta_one(theta):
    """At θ = 1 ± 1e-9, t = (1 − θ)·ln x crosses the 1e-8 switch between
    the series and ``expm1``/``log1p`` at x ≈ e^10. H and its inverse
    agree with the closed form to 1e-12 on both sides of it; a series
    missing a term would be off by ~1e-9 there."""
    one_minus_theta = 1.0 - theta
    for x in [1.5, 2.5, 10.5, 1e3, 2e4, 2.3e4, 1e6 + 0.5, 1e9 + 0.5]:
        want = h_integral_reference(x, theta)
        got = _h_integral(x, one_minus_theta)
        assert got == pytest.approx(want, rel=1e-12), x
        assert _h_integral_inverse(got, one_minus_theta) == pytest.approx(x, rel=1e-12)
    # The same uniforms draw θ = 1's ranks. Shifting θ by 1e-9 moves a
    # cell edge near rank 10⁵ by about 1e-3 of a rank, so a few ranks may
    # step to a neighbour, and none further.
    source = random.Random(3)
    uniforms = [source.random() for _ in range(4000)]
    near = ZipfKeyGenerator(_Replay(uniforms), 1_000_000, theta)
    at_one = ZipfKeyGenerator(_Replay(uniforms), 1_000_000, 1)
    steps = [near.rank() - at_one.rank() for _ in range(3000)]
    assert set(steps) <= {-1, 0, 1} and steps.count(0) >= 0.99 * len(steps)


@pytest.mark.parametrize("theta", [0, 0.99, 1, 1.3, 5])
@pytest.mark.parametrize("keyspace", [1, 7, 1000, 10**9])
def test_the_extreme_uniforms_draw_the_extreme_ranks(keyspace, theta):
    """``random()`` can return 0.0, which lands on x = K + ½, where k
    rounds past the keyspace; its top value lands at x ≈ ½, the bottom
    of rank 0's stretch. At K = 10⁹ and θ = 5, H(K + ½) has reached its
    limit 1/(θ − 1) and u = 0.25 would ask ``log1p`` for −1."""
    lowest, highest = 0.0, 1 - 2**-53
    generator = ZipfKeyGenerator(_Replay([lowest, highest]), keyspace, theta)
    last = generator.rank()
    if keyspace < 10**9:
        assert last == keyspace - 1
    assert 0 <= last < keyspace
    assert generator.rank() == 0


@pytest.mark.parametrize("theta", THETAS)
def test_one_key_always_draws_rank_zero(theta):
    generator = ZipfKeyGenerator(random.Random(1), 1, theta)
    assert {generator.rank() for _ in range(1000)} == {0}


@pytest.mark.parametrize("theta", [0, 0.99, 1, 1.3, 5])
def test_a_billion_keys_draw_in_range(theta):
    keyspace = 10**9
    generator = ZipfKeyGenerator(random.Random(2), keyspace, theta)
    ranks = [generator.rank() for _ in range(5000)]
    assert all(0 <= rank < keyspace for rank in ranks)
    if theta == 0:
        assert max(ranks) > keyspace // 2  # uniform: the whole range is live


def test_the_same_seed_draws_the_same_ranks():
    first, second, other = (
        ZipfKeyGenerator(random.Random(seed), 10_000, 0.99) for seed in (7, 7, 8)
    )
    ranks = [first.rank() for _ in range(2000)]
    assert ranks == [second.rank() for _ in range(2000)]
    assert ranks != [other.rank() for _ in range(2000)]
