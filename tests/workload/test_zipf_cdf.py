"""The rejection-inversion zipf sampler against the full CDF.

``ZipfKeyGenerator.rank`` maps a uniform ``U`` to a point u between
H(3/2) − 1 and H(K + ½), rounds H⁻¹(u) to a rank k, and keeps the draw
only when u lies in the top h(k) of k's cell [H(k − ½), H(k + ½)).
Laid end to end, those accepted stretches are the full CDF: the
accepted length below u, u's *mass*, is uniform over [0, Σ h), and the
rank is the bisect of the full cumulative weights at that mass.

The reference here builds, per keyspace and θ, every cell top H(k + ½)
and every cumulative weight, and finds each uniform's rank by bisecting
those tables instead of inverting H. Each uniform must draw exactly the
reference's rank, or be drawn again exactly where the reference finds
it in a gap between accepted stretches. The keyspaces are the block
edges of the checkpointed CDF this sampler replaced, kept so their ids
stay; for the sampler they are just small, odd and large keyspaces.
"""

import bisect
import itertools
import random
from array import array
from math import exp, expm1, log, log1p

import pytest

from repro.workload import ZipfKeyGenerator

KEYSPACES = [1, 15, 16, 17, 8191, 8192, 8193, 8209, 24581,
             65535, 65536, 65537, 65553, 196613]
THETAS = [0, 0.5, 0.99, 1, 1.3]
DRAWS = 5000


def h_integral(x, theta):
    """H(x) = (x^(1−θ) − 1)/(1 − θ), ln x at θ = 1."""
    if theta == 1:
        return log(x)
    return expm1((1 - theta) * log(x)) / (1 - theta)


def h_integral_inverse(u, theta):
    if theta == 1:
        return exp(u)
    return exp(log1p((1 - theta) * u) / (1 - theta))


class FullCdf:
    """Every cell top H(k + ½) and every cumulative weight Σ_{j≤k} j^−θ."""

    def __init__(self, keyspace, theta):
        self.keyspace, self.theta = keyspace, theta
        self.weights = array("d", (1.0 / k ** theta for k in range(1, keyspace + 1)))
        self.cumulative = array("d", itertools.accumulate(self.weights))
        self.tops = array("d", (h_integral(k + 0.5, theta)
                                for k in range(1, keyspace + 1)))
        self.lowest = self.tops[0] - 1.0  # H(3/2) − h(1)
        self.span = self.lowest - self.tops[-1]

    def uniform_for(self, u):
        """The ``random()`` value that the generator maps to u."""
        return (u - self.tops[-1]) / self.span

    def rank(self, value):
        """The 0-based rank ``value`` must draw, or None for a redraw."""
        u = self.tops[-1] + value * self.span
        k = min(bisect.bisect_left(self.tops, u), self.keyspace - 1) + 1
        bottom = self.tops[k - 1] - self.weights[k - 1]
        if u < bottom:
            return None
        below = self.cumulative[k - 2] if k > 1 else 0.0
        return bisect.bisect_left(self.cumulative, below + (u - bottom))


class _DrewAgain(Exception):
    pass


class _Once:
    """An rng with a single ``random()`` value: a redraw raises."""

    def __init__(self, value):
        self._values = [value]

    def random(self):
        if not self._values:
            raise _DrewAgain
        return self._values.pop()


def draw_one(generator, value):
    """The rank ``value`` draws, or None if the generator draws again."""
    generator.rng = _Once(value)
    try:
        return generator.rank()
    except _DrewAgain:
        return None


@pytest.fixture(scope="module", params=KEYSPACES)
def keyspace(request):
    return request.param


@pytest.fixture(scope="module")
def cdfs(keyspace):
    return {theta: FullCdf(keyspace, theta) for theta in THETAS}


@pytest.mark.parametrize("theta", THETAS)
def test_draws_equal_a_bisect_of_the_full_cdf(keyspace, cdfs, theta):
    cdf = cdfs[theta]
    source = random.Random(keyspace)
    values = [source.random() for _ in range(DRAWS)]
    want = [cdf.rank(value) for value in values]
    generator = ZipfKeyGenerator(None, keyspace, theta)
    assert [draw_one(generator, value) for value in values] == want
    # Fed the stream itself, a redraw takes the next value.
    accepted = [rank for rank in want if rank is not None]
    generator = ZipfKeyGenerator(random.Random(keyspace), keyspace, theta)
    assert [generator.rank() for _ in accepted] == accepted


@pytest.mark.parametrize("theta", THETAS)
def test_draws_at_block_edges_equal_the_full_cdf(keyspace, cdfs, theta):
    """Uniforms aimed just inside both ends of a rank's accepted stretch,
    into the gap below it and a hair under the stretch, and either side
    of x = k − s, where the generator's cheap acceptance test hands over
    to the exact one: a cell or a stretch off by one rank, an acceptance
    test with slack, or a squeeze s too generous, shows here. The first
    40 ranks, the last three and about 300 between."""
    cdf = cdfs[theta]
    s = 2.0 - h_integral_inverse(h_integral(2.5, theta) - 2.0 ** -theta, theta)
    ranks = sorted(set(range(1, min(keyspace, 40) + 1))
                   | set(range(max(1, keyspace - 2), keyspace + 1))
                   | set(range(1, keyspace + 1, max(1, keyspace // 300))))
    targets = []
    for k in ranks:
        top = cdf.tops[k - 1]
        bottom = top - cdf.weights[k - 1]
        margin = 2.0 ** -20 * cdf.weights[k - 1]
        targets += [bottom + margin, top - margin]
        if k > 1:
            below = cdf.tops[k - 2]
            if bottom - below > 4 * margin:
                targets += [(below + bottom) / 2, bottom - margin / 1024]
            squeeze = h_integral(k - s, theta)
            targets += [squeeze - margin, squeeze + margin]
    values = [value for value in map(cdf.uniform_for, targets) if 0.0 <= value < 1.0]
    assert len(values) >= 2 * len(ranks) - 2
    want = [cdf.rank(value) for value in values]
    if theta > 0 and keyspace > 1:
        assert None in want  # some targets do land in a gap
    generator = ZipfKeyGenerator(None, keyspace, theta)
    assert [draw_one(generator, value) for value in values] == want
