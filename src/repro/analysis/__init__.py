"""Result presentation for the experiment suite: tables and ratios."""

from repro.analysis.tables import Table
from repro.analysis.stats import ratio

__all__ = ["Table", "ratio"]
