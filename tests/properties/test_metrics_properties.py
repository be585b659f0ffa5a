"""Property tests for the measurement primitives.

Histogram.percentile is checked against the standard library's
``statistics.quantiles`` (the linear-interpolation "inclusive" method is
the same estimator).
"""

import math
import statistics

from hypothesis import given, strategies as st

from repro.sim.metrics import Histogram

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Histogram.percentile


@given(st.lists(finite_floats, min_size=2, max_size=200))
def test_quartiles_match_statistics_quantiles(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert math.isclose(histogram.percentile(25), q1, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(histogram.percentile(50), median, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(histogram.percentile(75), q3, rel_tol=1e-9, abs_tol=1e-6)


@given(st.lists(finite_floats, min_size=2, max_size=100))
def test_percentile_grid_matches_statistics_quantiles(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    # quantiles(n=100, inclusive) gives the 1..99th percentiles.
    expected = statistics.quantiles(values, n=100, method="inclusive")
    for q, want in zip(range(1, 100), expected):
        assert math.isclose(
            histogram.percentile(q), want, rel_tol=1e-9, abs_tol=1e-6
        )


@given(st.lists(finite_floats, min_size=1, max_size=100),
       st.floats(min_value=0.0, max_value=100.0))
def test_percentile_is_bounded_and_monotone(values, q):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    result = histogram.percentile(q)
    assert min(values) <= result <= max(values)
    assert histogram.percentile(0) == min(values)
    assert histogram.percentile(100) == max(values)
    if q <= 50:
        assert result <= histogram.percentile(50) or math.isclose(
            result, histogram.percentile(50)
        )


def test_percentile_empty_is_nan():
    assert math.isnan(Histogram("h").percentile(50))
