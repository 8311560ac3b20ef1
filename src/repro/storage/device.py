"""NVMe-like device model.

A device executes commands from per-queue-pair submission rings with
bounded internal concurrency (flash channels): each command pays the media
latency, data moves at the device's bandwidth, and a completion entry lands
in the matching completion ring (optionally raising an interrupt, for the
kernel block path).

Calibration (a low-latency datacenter drive, Optane/Z-NAND class — the
kind SPDK exists for):

- 4 KiB read media latency ~ 5 us; 32 channels -> ~6M IOPS ceiling
- sequential bandwidth ~ 6.8 GB/s
- submission-to-device fetch ~ 200 ns (doorbell + SQE DMA)
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.errors import HardwareError
from repro.sim.resources import Resource
from repro.sim.store import Store
from repro.units import gib_per_s, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


@dataclass(frozen=True)
class NvmeProfile:
    """Device timing parameters."""

    read_latency_ns: float = us(5)
    write_latency_ns: float = us(8)
    bandwidth: float = gib_per_s(6.4)  # bytes/ns
    channels: int = 32
    #: Doorbell decode + SQE fetch DMA.
    fetch_ns: float = 200.0
    #: CQE write DMA.
    cqe_ns: float = 250.0
    sq_depth: int = 256
    block_size: int = 512


@dataclass
class IoCommand:
    """One NVMe command (read or write of ``nbytes`` at ``lba``)."""

    cmd_id: int
    op: str  # "read" | "write"
    lba: int
    nbytes: int
    tenant: str = "default"
    submitted_at: float = 0.0
    completed_at: float = 0.0

    @property
    def latency_ns(self) -> float:
        return self.completed_at - self.submitted_at


class StorageQueuePair:
    """One SQ/CQ pair owned by an application thread."""

    _ids = itertools.count(1)

    def __init__(self, device: "NvmeDevice", depth: int):
        self.device = device
        self.qid = next(self._ids)
        self.depth = depth
        self.outstanding = 0
        self.cq: deque[IoCommand] = deque()
        self._waiters: list = []
        #: Kernel hook for interrupt-driven completion (block layer path).
        self.on_completion: Optional[Callable[[IoCommand], None]] = None

    def cq_pop(self, max_entries: int) -> list[IoCommand]:
        out = []
        while self.cq and len(out) < max_entries:
            out.append(self.cq.popleft())
        return out

    def wait_nonempty(self) -> "Event":
        ev = self.device.sim.event(name=f"nvmeq{self.qid}.nonempty")
        if self.cq:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def _complete(self, cmd: IoCommand) -> None:
        cmd.completed_at = self.device.sim.now
        self.outstanding -= 1
        self.cq.append(cmd)
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(None)
        if self.on_completion is not None:
            self.on_completion(cmd)


class NvmeDevice:
    """The SSD: shared channels executing commands from all queue pairs."""

    def __init__(self, sim: "Simulator", profile: Optional[NvmeProfile] = None,
                 name: str = "nvme0"):
        self.sim = sim
        self.profile = profile or NvmeProfile()
        self.name = name
        self._channels = Resource(sim, capacity=self.profile.channels,
                                  name=f"{name}.chan")
        #: Shared data bus: aggregate device bandwidth (channels give
        #: latency parallelism, not bandwidth multiplication).
        self._bus = Resource(sim, capacity=1, name=f"{name}.bus")
        self._fetchq: Store = Store(sim, name=f"{name}.fetch")
        self._cmd_name = f"{name}.cmd"
        self.commands_done = 0
        self.bytes_done = 0
        sim.process(self._fetch_engine(), name=f"{name}.fetch")

    def create_qp(self, depth: Optional[int] = None) -> StorageQueuePair:
        return StorageQueuePair(self, depth or self.profile.sq_depth)

    # -- dataplane entry (CPU costs paid by the dataplane wrapper) ---------------

    def hw_submit(self, qp: StorageQueuePair, cmd: IoCommand) -> None:
        if cmd.op not in ("read", "write"):
            raise HardwareError(f"unknown IO op {cmd.op!r}")
        if cmd.nbytes <= 0 or cmd.nbytes % self.profile.block_size:
            raise HardwareError(
                f"IO size must be a positive multiple of "
                f"{self.profile.block_size}, got {cmd.nbytes}"
            )
        if qp.outstanding >= qp.depth:
            raise HardwareError(f"queue {qp.qid} full (depth {qp.depth})")
        qp.outstanding += 1
        cmd.submitted_at = self.sim.now
        self._fetchq.put((qp, cmd))

    # -- device engines ------------------------------------------------------------

    def _fetch_engine(self) -> Generator["Event", object, None]:
        """Serial SQE fetch: caps the device's command ingest rate."""
        while True:
            item = yield self._fetchq.get()
            qp, cmd = item  # type: ignore[misc]
            yield self.profile.fetch_ns
            self.sim.spawn(self._execute(qp, cmd), name=self._cmd_name)

    def _execute(self, qp: StorageQueuePair, cmd: IoCommand) -> Generator["Event", object, None]:
        channels = self._channels
        req = channels.try_hold()
        if req is None:
            req = yield from channels.acquire()
        try:
            media = (self.profile.read_latency_ns if cmd.op == "read"
                     else self.profile.write_latency_ns)
            yield media
            bus = self._bus
            tok = bus.try_hold()
            if tok is None:
                tok = yield from bus.acquire()
            try:
                yield cmd.nbytes / self.profile.bandwidth
            finally:
                bus.release(tok)
        finally:
            channels.release(req)
        yield self.profile.cqe_ns
        self.commands_done += 1
        self.bytes_done += cmd.nbytes
        qp._complete(cmd)
