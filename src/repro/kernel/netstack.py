"""Kernel network-stack cost model.

The socket path pays, per message (paper §3, fig. 2a):

1. a send/recv **syscall** (charged via :meth:`repro.hw.cpu.Core.syscall`),
2. a **copy** between user and pinned kernel memory (memcpy model),
3. **per-packet protocol processing** — skb handling, IP/transport headers,
   netdevice queuing — on both sides, and
4. receive-side **softirq** work that is serialized per host (NAPI polls one
   CPU at a time per device queue), which is the aggregate-bandwidth choke
   point that makes IPoIB up to 2x slower in the paper's NPB runs.

This module provides the constants and the per-host softirq resource;
:mod:`repro.kernel.ipoib` builds the actual device and sockets on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class NetstackProfile:
    """Socket-path constants (calibrated against IPoIB measurements)."""

    #: IPoIB datagram-mode MTU (4 KiB IB MTU minus IPoIB/IP headers).
    ipoib_mtu: int = 2044
    #: Sender-side kernel protocol work per packet (skb + headers + route).
    tx_per_packet_ns: float = 220.0
    #: Receive-side softirq work per packet (GRO-less IPoIB datagram path).
    rx_per_packet_ns: float = 340.0
    #: Fixed per-message kernel work on top of packet costs (socket lookup,
    #: scheduling the wakeup).
    per_message_ns: float = 900.0
    #: RSS receive queues: softirq processing parallelism per host.  The
    #: default (1) matches the paper-era IPoIB datagram path, whose RX is
    #: effectively serialized; raise it to model RSS/multi-queue setups.
    rx_queues: int = 1
    #: Wire burst size the device uses (event-count optimization: per-packet
    #: costs are charged arithmetically, bursts move through the fabric).
    burst_bytes: int = 64 * 1024

    def packets(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.ipoib_mtu)) if nbytes > 0 else 1

    def tx_kernel_ns(self, nbytes: int) -> float:
        return self.per_message_ns + self.packets(nbytes) * self.tx_per_packet_ns

    def rx_softirq_ns(self, nbytes: int) -> float:
        return self.packets(nbytes) * self.rx_per_packet_ns


class Softirq:
    """Per-host receive processing: RSS queues, each NAPI-serialized."""

    def __init__(self, sim: "Simulator", host_id: int, rx_queues: int = 4):
        self.sim = sim
        self.res = Resource(sim, capacity=max(1, rx_queues),
                            name=f"softirq:h{host_id}")
        self.packets_processed = 0
        self.busy_ns = 0.0

    def process(self, work_ns: float, packets: int):
        """Generator: occupy the softirq context for ``work_ns``."""
        res = self.res
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            yield work_ns
            self.packets_processed += packets
            self.busy_ns += work_ns
        finally:
            res.release(tok)
