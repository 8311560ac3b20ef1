"""Unit tests for the units module (conversion sanity)."""

import pytest

from repro import units


def test_time_helpers_compose():
    assert units.us(1) == 1000.0
    assert units.ms(1) == 1000 * units.us(1)


def test_round_trips():
    assert units.to_ms(units.ms(2)) == pytest.approx(2)


def test_gbit_per_s_known_point():
    # 100 Gbit/s is 12.5 bytes/ns.
    assert units.gbit_per_s(100) == pytest.approx(12.5)
    assert units.to_gbit_per_s(12.5) == pytest.approx(100)


def test_gib_per_s():
    assert units.gib_per_s(1.0) == pytest.approx(1.073741824)


def test_pretty_size():
    assert units.pretty_size(2) == "2 B"
    assert units.pretty_size(4096) == "4 KiB"
    assert units.pretty_size(1 << 20) == "1 MiB"
    assert units.pretty_size(3 << 30) == "3 GiB"
    assert units.pretty_size(1500) == "1500 B"  # not a clean KiB multiple


def test_size_constants():
    assert units.KiB == 1024
    assert units.mib(1) == 1 << 20
