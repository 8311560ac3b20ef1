"""Memory model: address spaces, buffers, copy costs."""

import pytest

from repro.errors import MemoryAccessError
from repro.hw.memory import AddressSpace, MemoryModel
from repro.hw.profiles import SYSTEM_L
from repro.units import mib, us


def test_alloc_unique_aligned_addresses():
    space = AddressSpace()
    a = space.alloc(1000)
    b = space.alloc(1000)
    assert a.addr % 4096 == 0
    assert b.addr % 4096 == 0
    assert b.addr >= a.addr + 1000


def test_alloc_zero_rejected():
    with pytest.raises(MemoryAccessError):
        AddressSpace().alloc(0)


def test_buffer_read_write_roundtrip():
    space = AddressSpace()
    buf = space.alloc(256)
    buf.write(10, b"hello")
    assert buf.read(10, 5) == b"hello"
    # Unwritten regions read as zeros.
    assert buf.read(0, 4) == b"\x00" * 4


def test_buffer_read_before_any_write_is_zeros():
    buf = AddressSpace().alloc(64)
    assert buf.read(0, 64) == bytes(64)


def test_buffer_bounds_enforced():
    buf = AddressSpace().alloc(16)
    with pytest.raises(MemoryAccessError):
        buf.write(10, b"toolongpayload")
    with pytest.raises(MemoryAccessError):
        buf.read(0, 17)
    with pytest.raises(MemoryAccessError):
        buf.check_range(buf.addr - 1, 4)


def test_copy_cost_anchor_140us_per_mib():
    """The paper's §2 anchor: one extra memcpy costs ~140 us/MiB."""
    model = MemoryModel(SYSTEM_L.memory)
    cost = model.copy_ns(mib(1))
    assert us(120) < cost < us(160)


def test_copy_cost_zero_and_negative():
    model = MemoryModel(SYSTEM_L.memory)
    assert model.copy_ns(0) == 0.0
    with pytest.raises(MemoryAccessError):
        model.copy_ns(-1)


def test_copy_overhead_dominates_small():
    model = MemoryModel(SYSTEM_L.memory)
    assert model.copy_ns(8) >= SYSTEM_L.memory.memcpy_overhead_ns


def test_pin_cost_scales_with_pages():
    model = MemoryModel(SYSTEM_L.memory)
    one_page = model.pin_ns(100)
    two_pages = model.pin_ns(4097)
    assert two_pages == pytest.approx(2 * one_page)
