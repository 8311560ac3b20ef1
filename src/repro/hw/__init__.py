"""Hardware models: CPU cores (with DVFS), memory, NICs.

Everything is parameterized by a :class:`~repro.hw.profiles.SystemProfile`;
the two calibrated instances are :data:`~repro.hw.profiles.SYSTEM_L` (paper's
local testbed) and :data:`~repro.hw.profiles.SYSTEM_A` (paper's Azure
HB120 testbed).
"""

from repro.hw.profiles import (
    SYSTEM_A,
    SYSTEM_L,
    CpuProfile,
    MemoryProfile,
    NicProfile,
    SystemProfile,
)
from repro.hw.cpu import Core, CpuSet
from repro.hw.memory import AddressSpace, MemoryModel, MemoryRegion
from repro.hw.nic import Nic

__all__ = [
    "CpuProfile",
    "MemoryProfile",
    "NicProfile",
    "SystemProfile",
    "SYSTEM_L",
    "SYSTEM_A",
    "Core",
    "CpuSet",
    "MemoryModel",
    "MemoryRegion",
    "AddressSpace",
    "Nic",
]
