"""Protection domains.

A PD groups MRs and QPs; a work request may only use MRs from the
PD of the queue it is posted to.  The NIC enforces it as hardware does,
through :meth:`~repro.verbs.mr.MrTable.check_local` and
:meth:`~repro.verbs.mr.MrTable.check_remote`.  A local key from another
PD fails the post (``MemoryAccessError``), as do a bad key or range.  A
remote key from a PD other than the responder QP's is a remote access
error: the responder NAKs, and the initiator's WR completes with
``REM_ACCESS_ERR``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.device import Context
    from repro.verbs.mr import MemoryRegionV
    from repro.verbs.qp import QueuePair


class ProtectionDomain:
    """``ibv_pd`` analogue."""

    _next_handle = 1

    def __init__(self, context: "Context") -> None:
        self.context = context
        self.handle = ProtectionDomain._next_handle
        ProtectionDomain._next_handle += 1
        self.mrs: list["MemoryRegionV"] = []
        self.qps: list["QueuePair"] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PD {self.handle} mrs={len(self.mrs)} qps={len(self.qps)}>"
