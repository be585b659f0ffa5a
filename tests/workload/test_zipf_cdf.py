"""The zipf CDF's hot prefix and checkpoints against the full CDF.

``ZipfKeyGenerator`` keeps exact cumulative weights for the hottest
``_HOT`` ranks and a checkpoint every ``_BLOCK`` ranks after them,
rebuilding a cold block on each draw that lands in it. The reference
here is the full CDF: one ``array('d')`` holding every cumulative
weight, bisected per draw. The totals and every draw must be
equal — not close — at keyspaces on both sides of each boundary: inside
the first block, at a block edge, at the end of the prefix, one past it,
and with a short last block.
"""

import bisect
import itertools
import random
from array import array

import pytest

from repro.workload import ZipfKeyGenerator
from repro.workload.zipf import _BLOCK, _HOT

#: The prefix's edges, then the same edges of a 65 536-rank prefix: past
#: today's prefix those are whole or short last blocks deep in the cold
#: region.
KEYSPACES = [1, 15, 16, 17, _HOT - 1, _HOT, _HOT + 1, _HOT + 17, 3 * _HOT + 5,
             65535, 65536, 65537, 65553, 196613]
THETAS = [0, 0.5, 0.99, 1, 1.3]
DRAWS = 5000


def full_cdf(keyspace, theta):
    """Every cumulative weight: the CDF before checkpointing."""
    weights = (1.0 / (rank + 1) ** theta for rank in range(keyspace))
    return array("d", itertools.accumulate(weights))


class _Replay:
    """An rng that hands out a fixed sequence of ``random()`` values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@pytest.fixture(scope="module", params=KEYSPACES)
def keyspace(request):
    return request.param


@pytest.fixture(scope="module")
def cdfs(keyspace):
    return {theta: full_cdf(keyspace, theta) for theta in THETAS}


@pytest.mark.parametrize("theta", THETAS)
def test_draws_equal_a_bisect_of_the_full_cdf(keyspace, cdfs, theta):
    cumulative = cdfs[theta]
    total = cumulative[-1]
    generator = ZipfKeyGenerator(random.Random(keyspace), keyspace, theta)
    assert generator._total == total
    reference = random.Random(keyspace)
    want = [bisect.bisect_left(cumulative, reference.random() * total)
            for _ in range(DRAWS)]
    assert [generator.rank() for _ in range(DRAWS)] == want


@pytest.mark.parametrize("theta", THETAS)
def test_draws_at_block_edges_equal_the_full_cdf(keyspace, cdfs, theta):
    """Draws aimed at each side of every block edge in range, where a
    rebuilt block that is off by one rank or one ulp would show."""
    cumulative = cdfs[theta]
    total = cumulative[-1]
    # The prefix's end and every block's end (about 500 of them), the
    # last rank, and the ranks beside each.
    ends = list(range(_HOT - 1, keyspace, _BLOCK))
    ends = ends[:: max(1, len(ends) // 500)] + ends[-1:] + [0, keyspace - 1]
    ranks = sorted({rank + step for rank in ends for step in (-1, 0, 1)}
                   & set(range(keyspace)))
    # Each rank's cumulative weight as a draw, and the draws an ulp away.
    largest = 1 - 2 ** -53  # random() < 1
    values = []
    for rank in ranks:
        point = cumulative[rank] / total
        values += [min(value, largest)
                   for value in (point * (1 - 2 ** -52), point, point * (1 + 2 ** -52))]
    generator = ZipfKeyGenerator(_Replay(values), keyspace, theta)
    want = [bisect.bisect_left(cumulative, value * total) for value in values]
    assert [generator.rank() for _ in values] == want
