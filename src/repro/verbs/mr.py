"""Memory regions and the per-host MR table.

Registering an MR is a control-plane operation: pages are pinned (CPU cost
in the kernel), and the region gets an ``lkey``/``rkey`` pair.  The NIC
validates every DMA against the table — an invalid address yields an error
completion but never touches memory outside registered regions (paper §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import MemoryAccessError, VerbsError
from repro.hw.memory import Buffer
from repro.verbs.wr import AccessFlags

# Plain-int permission bits: ``IntFlag.__and__`` costs 10-20x an int
# ``&`` on CPython 3.11, and the NIC checks access once per message.
_LOCAL_WRITE = int(AccessFlags.LOCAL_WRITE)
_REMOTE_WRITE = int(AccessFlags.REMOTE_WRITE)
_REMOTE_READ = int(AccessFlags.REMOTE_READ)

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.pd import ProtectionDomain


@dataclass
class MemoryRegionV:
    """A registered memory region (``ibv_mr`` analogue)."""

    pd: "ProtectionDomain"
    buffer: Buffer
    addr: int
    length: int
    lkey: int
    rkey: int
    access: AccessFlags
    valid: bool = True

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.addr + self.length

    def deregister(self) -> None:
        self.valid = False


class MrTable:
    """Per-host key -> MR lookup used by the NIC for DMA validation."""

    def __init__(self) -> None:
        self._by_lkey: dict[int, MemoryRegionV] = {}
        self._by_rkey: dict[int, MemoryRegionV] = {}
        self._next_key = 0x1000

    def install(self, mr: MemoryRegionV) -> None:
        self._by_lkey[mr.lkey] = mr
        self._by_rkey[mr.rkey] = mr

    def remove(self, mr: MemoryRegionV) -> None:
        self._by_lkey.pop(mr.lkey, None)
        self._by_rkey.pop(mr.rkey, None)
        mr.deregister()

    def next_keys(self) -> tuple[int, int]:
        lkey = self._next_key
        rkey = self._next_key + 1
        self._next_key += 2
        return lkey, rkey

    def check_local(
        self, lkey: int, addr: int, length: int, write: bool,
        pd: Optional["ProtectionDomain"],
    ) -> MemoryRegionV:
        """Validate a local (lkey) access by a WQE of ``pd``; raise on violation."""
        mr = self._by_lkey.get(lkey)
        if mr is None or not mr.valid:
            raise MemoryAccessError(f"invalid lkey {lkey:#x}")
        if mr.pd is not pd:
            raise MemoryAccessError(
                f"MR lkey={lkey:#x} belongs to PD {getattr(mr.pd, 'handle', None)}, "
                f"not PD {getattr(pd, 'handle', None)}"
            )
        if not (mr.addr <= addr and addr + length <= mr.addr + mr.length):
            raise MemoryAccessError(
                f"local access [{addr:#x},+{length}) outside MR "
                f"[{mr.addr:#x},+{mr.length})"
            )
        if write and not int(mr.access) & _LOCAL_WRITE:
            raise MemoryAccessError(f"MR lkey={lkey:#x} lacks LOCAL_WRITE")
        return mr

    def check_remote(
        self, rkey: int, addr: int, length: int, write: bool,
        pd: Optional["ProtectionDomain"],
    ) -> Optional[MemoryRegionV]:
        """Validate a remote (rkey) access to a QP of ``pd``; None on violation.

        Remote violations must not raise inside the NIC engine — the IB
        spec turns them into NAKs / error completions at the initiator.
        """
        mr = self._by_rkey.get(rkey)
        if mr is None or not mr.valid or mr.pd is not pd:
            return None
        if not mr.contains(addr, length):
            return None
        if not int(mr.access) & (_REMOTE_WRITE if write else _REMOTE_READ):
            return None
        return mr


def validate_registration(buffer: Buffer, addr: int, length: int) -> None:
    """Check that the MR range lies within the backing buffer."""
    if length <= 0:
        raise VerbsError(f"MR length must be positive: {length}")
    buffer.check_range(addr, length)
