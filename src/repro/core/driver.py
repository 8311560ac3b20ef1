"""mlx5-like drivers: the WQE-building fast path.

The paper's key implementation point (§3/§4): the user-level driver in
bypass mode and the kernel-level driver in CoRD are *behaviourally
equivalent* — CoRD moved ~250 lines into the kernel without changing what
they do.  Both build the same WQE; the only difference is where the CPU
executes them and that CoRD pays the syscall + ioctl-style argument
serialization around them.

This module computes the CPU cost of that fast path so both dataplanes
share one source of truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.profiles import SystemProfile

#: Fixed cost of the inline-WQE payload store (vs. a full memcpy call).
INLINE_COPY_OVERHEAD_NS = 10.0

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QueuePair
    from repro.verbs.wr import SendWR


def should_inline(system: SystemProfile, qp: "QueuePair", wr: "SendWR", cord: bool) -> bool:
    """Decide whether this send goes inline (payload copied into the WQE).

    Inline is a latency win for tiny messages (no payload DMA fetch).  The
    CoRD prototype on system A lacks inline support (§5, fig. 5a) — that is
    the source of the bimodal overhead the paper reports.
    """
    if wr.length == 0 or wr.length > qp.max_inline:
        return False
    if not wr.opcode.reads_local_memory:
        return False
    if cord and not system.cord_inline_supported:
        return False
    return True


def post_send_cpu_ns(system: SystemProfile, wr: "SendWR", inline: bool) -> float:
    """Driver CPU time to build and submit one send WQE (either level)."""
    cost = system.cpu.post_wqe_ns
    if inline:
        # Payload is stored into the WQE by the CPU: a hand-unrolled,
        # cache-hot copy, much cheaper than a general memcpy call.
        cost += INLINE_COPY_OVERHEAD_NS + wr.length / system.memory.memcpy_bw
    return cost


def post_recv_cpu_ns(system: SystemProfile) -> float:
    """Driver CPU time to link one recv WQE and bump the doorbell record."""
    return system.cpu.post_wqe_ns * 0.7


def doorbell_cpu_ns(system: SystemProfile) -> float:
    """MMIO doorbell write cost (paid by whoever rings it)."""
    return system.nic.doorbell_ns
