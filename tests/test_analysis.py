"""Analysis helpers: series math, table rendering, shape checks."""

import pytest

from repro.analysis import (
    Series,
    SweepTable,
    check_between,
    check_ratio,
    format_table,
)


def test_series_add_and_lookup():
    s = Series("a")
    s.add(1, 10.0)
    s.add(2, 20.0)
    assert s.y_at(2) == 20.0
    assert len(s) == 2
    with pytest.raises(ValueError):
        s.y_at(99)


def test_sweep_table_rows_align_mixed_xs():
    t = SweepTable("title", "size")
    s1 = t.new_series("one")
    s2 = t.new_series("two")
    s1.add("64", 1.0)
    s1.add("128", 2.0)
    s2.add("128", 3.0)
    header, rows = t.rows()
    assert header == ["size", "one", "two"]
    assert rows == [["64", "1.000", "-"], ["128", "2.000", "3.000"]]
    with pytest.raises(KeyError):
        t.get("three")


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "333" in lines[4]  # title, header, separator, row1, row2
    # All rows align to the same width.
    assert len(lines[3]) == len(lines[4]) == len(lines[2])


def test_check_between():
    assert check_between("x", 5.0, 1, 10).passed
    assert not check_between("x", 0.5, 1, 10).passed
    assert "[PASS]" in check_between("x", 5.0, 1, 10).line()
    assert "[FAIL]" in check_between("x", 50, 1, 10).line()


def test_check_ratio_tolerance():
    assert check_ratio("x", 1.4, 1.0, tol=0.5).passed
    assert not check_ratio("x", 1.6, 1.0, tol=0.5).passed
