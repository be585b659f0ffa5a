"""The one statistic the bench tables share."""

from __future__ import annotations

import math


def ratio(numerator: float, denominator: float) -> float:
    """A safe ratio for 'who wins by what factor' columns."""
    if denominator == 0:
        return math.inf if numerator > 0 else math.nan
    return numerator / denominator
