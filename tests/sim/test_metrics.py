"""Metrics: counters, histograms, time series."""

import math

from repro.sim import Simulator
from repro.sim.metrics import Histogram


def test_counter_inc_and_reset():
    sim = Simulator()
    counter = sim.metrics.counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    counter.reset()
    assert counter.value == 0.0


def test_counter_shorthand():
    sim = Simulator()
    sim.metrics.inc("hits")
    sim.metrics.inc("hits", 4)
    assert sim.metrics.counter("hits").value == 5


def test_histogram_summary_stats():
    hist = Histogram("h")
    for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
        hist.observe(v)
    assert hist.count == 5
    assert hist.mean == 3.0
    assert hist.minimum == 1.0
    assert hist.maximum == 5.0
    assert hist.percentile(50) == 3.0
    assert hist.percentile(0) == 1.0
    assert hist.percentile(100) == 5.0


def test_histogram_percentile_interpolates():
    hist = Histogram("h")
    hist.observe(0.0)
    hist.observe(10.0)
    assert hist.percentile(50) == 5.0


def test_histogram_empty_is_nan():
    hist = Histogram("h")
    assert math.isnan(hist.mean)
    assert math.isnan(hist.percentile(50))


def test_histogram_stdev():
    hist = Histogram("h")
    for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        hist.observe(v)
    assert abs(hist.stdev - 2.138) < 0.01


def test_histogram_single_value_stdev_zero():
    hist = Histogram("h")
    hist.observe(3.0)
    assert hist.stdev == 0.0


def test_observe_shorthand():
    sim = Simulator()
    sim.metrics.observe("lat", 1.0)
    sim.metrics.observe("lat", 3.0)
    assert sim.metrics.histogram("lat").mean == 2.0


def test_counters_snapshot_sorted():
    sim = Simulator()
    sim.metrics.inc("b")
    sim.metrics.inc("a")
    assert list(sim.metrics.counters()) == ["a", "b"]
