"""Tables and stats helpers."""

import math

import pytest

from repro.analysis import Table, ratio
from repro.errors import SimulationError


def test_table_renders_aligned():
    table = Table("T", ["name", "value"])
    table.add_row("a", 1.0)
    table.add_row("longer-name", 123456.0)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2] and "value" in lines[2]
    assert len(lines) == 6


def test_table_row_arity_checked():
    table = Table("T", ["a", "b"])
    with pytest.raises(SimulationError):
        table.add_row(1)


def test_table_needs_columns():
    with pytest.raises(SimulationError):
        Table("T", [])


def test_float_formatting():
    table = Table("T", ["v"])
    table.add_row(0.000001)
    table.add_row(1234567.0)
    table.add_row(0)
    text = table.render()
    assert "1e-06" in text
    assert "1.23e+06" in text


def test_ratio():
    assert ratio(10.0, 2.0) == 5.0
    assert math.isinf(ratio(1.0, 0.0))
    assert math.isnan(ratio(0.0, 0.0))
