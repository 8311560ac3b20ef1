"""Host memory: address spaces, buffers, copy-cost model.

Applications in the simulation own an :class:`AddressSpace` (a per-process
virtual address space with a bump allocator).  Buffers are address ranges;
payload *contents* are optional — performance experiments move sizes, while
correctness tests attach real ``bytes``/ndarray payloads and check delivery.

The NIC accesses application memory by virtual address (paper §4: the NIC
translates; the kernel is off the critical path), so DMA in the simulation
is a range check against the owning address space plus timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MemoryAccessError
from repro.hw.profiles import MemoryProfile


@dataclass
class Buffer:
    """A contiguous range of virtual memory owned by one address space."""

    space: "AddressSpace"
    addr: int
    length: int
    #: Optional real payload for correctness tests (None for size-only runs).
    data: Optional[bytearray] = None

    def check_range(self, addr: int, length: int) -> None:
        if addr < self.addr or addr + length > self.addr + self.length:
            raise MemoryAccessError(
                f"range [{addr:#x}, {addr + length:#x}) outside buffer "
                f"[{self.addr:#x}, {self.addr + self.length:#x})"
            )

    def write(self, offset: int, payload: bytes) -> None:
        """Store real bytes (allocating backing storage lazily)."""
        if offset < 0 or offset + len(payload) > self.length:
            raise MemoryAccessError(
                f"write of {len(payload)} B at offset {offset} exceeds buffer"
            )
        if self.data is None:
            self.data = bytearray(self.length)
        self.data[offset : offset + len(payload)] = payload

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.length:
            raise MemoryAccessError(
                f"read of {length} B at offset {offset} exceeds buffer"
            )
        if self.data is None:
            return bytes(length)
        return bytes(self.data[offset : offset + length])


class AddressSpace:
    """Per-process virtual memory with a bump allocator.

    Addresses are synthetic but unique within the space, which is all the
    verbs layer needs for MR bounds checking and rkey validation.
    """

    _BASE = 0x10_0000_0000

    def __init__(self, name: str = "as"):
        self.name = name
        self._next = self._BASE

    def alloc(self, length: int, align: int = 4096) -> Buffer:
        """Allocate a buffer of ``length`` bytes."""
        if length <= 0:
            raise MemoryAccessError(f"allocation size must be positive: {length}")
        addr = (self._next + align - 1) // align * align
        self._next = addr + length
        return Buffer(self, addr, length)


class MemoryModel:
    """Copy/pin timing derived from a :class:`MemoryProfile`."""

    def __init__(self, profile: MemoryProfile):
        self.profile = profile

    def copy_ns(self, nbytes: int) -> float:
        """CPU time for one memcpy of ``nbytes``."""
        if nbytes < 0:
            raise MemoryAccessError(f"negative copy size: {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.profile.memcpy_overhead_ns + nbytes / self.profile.memcpy_bw

    def pin_ns(self, nbytes: int) -> float:
        """CPU time to pin the pages backing ``nbytes`` (MR registration)."""
        pages = (nbytes + self.profile.page_size - 1) // self.profile.page_size
        return max(pages, 1) * self.profile.page_pin_ns


# Re-exported alias used by the verbs layer; an MR wraps a Buffer slice.
MemoryRegion = Buffer
