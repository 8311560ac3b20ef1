"""PCIe bus between a host's memory and its NIC.

Models DMA transfers as latency + bandwidth occupancy on a shared bus
resource (a single NIC saturating the link never saturates x16 PCIe here,
but contention between simultaneous DMA streams is still serialized at the
configured bandwidth, which caps aggregate throughput realistically).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import HardwareError
from repro.hw.profiles import NicProfile
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class PcieBus:
    """DMA timing for one host<->NIC PCIe connection."""

    def __init__(self, sim: "Simulator", profile: NicProfile, name: str = "pcie"):
        self.sim = sim
        self.profile = profile
        self.name = name
        # One transaction stream; concurrent DMAs queue (bandwidth sharing
        # approximated by serialization at full bandwidth).
        self.res = Resource(sim, capacity=1, name=name)
        self.bytes_read = 0
        self.bytes_written = 0

    def _occupancy(self, nbytes: int) -> float:
        return nbytes / self.profile.pcie_bw if nbytes > 0 else 0.0

    def dma_read(self, nbytes: int) -> Generator[Event, object, None]:
        """NIC reads ``nbytes`` from host memory (payload/WQE fetch)."""
        if nbytes < 0:
            raise HardwareError(f"negative DMA size: {nbytes}")
        res = self.res
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            yield self.profile.dma_read_lat_ns + self._occupancy(nbytes)
            self.bytes_read += nbytes
        finally:
            res.release(tok)

    def dma_write(self, nbytes: int) -> Generator[Event, object, None]:
        """NIC writes ``nbytes`` into host memory (payload/CQE delivery)."""
        if nbytes < 0:
            raise HardwareError(f"negative DMA size: {nbytes}")
        res = self.res
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            yield self.profile.dma_write_lat_ns + self._occupancy(nbytes)
            self.bytes_written += nbytes
        finally:
            res.release(tok)
