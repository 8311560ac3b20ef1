"""Device contexts and the control plane.

Control-plane verbs (allocate PD, register MR, create CQ/QP, modify QP)
always go through the kernel via ``ioctl`` with serialized arguments
(paper §4) — in *both* bypass and CoRD.  Each helper here is a generator
that charges the caller's core the syscall + serialization + kernel work
and then mutates the data structures.

The interesting divergence — the data plane — lives in
:mod:`repro.core.dataplane`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import VerbsError
from repro.hw.cpu import Core
from repro.hw.memory import Buffer
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegionV, validate_registration
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QPState, QueuePair, Transport
from repro.verbs.wr import AccessFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.events import Event

#: Serialization/deserialization of ioctl argument structures (paper §4:
#: "arguments to ibverbs calls are complex data structures that must be
#: serialized ... not performance critical for control-plane operations").
IOCTL_SERIALIZE_NS = 420.0
#: Kernel-side bookkeeping for object creation.
CTRL_KERNEL_NS = 900.0


class Device:
    """``ibv_device`` analogue: one per host NIC."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.name = f"mlx5_{host.host_id}"

    def open(self, core: Core) -> Generator["Event", object, "Context"]:
        """``ibv_open_device``: create a context (one ioctl)."""
        yield from core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        return Context(self, core)


class Context:
    """``ibv_context`` analogue, bound to the opening thread's core."""

    def __init__(self, device: Device, core: Core) -> None:
        self.device = device
        self.core = core
        self.host = device.host
        self.sim = device.host.sim
        self._cq_seq = 0

    # -- control-plane verbs ------------------------------------------------------

    def alloc_pd(self) -> Generator["Event", object, ProtectionDomain]:
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        return ProtectionDomain(self)

    def reg_mr(
        self,
        pd: ProtectionDomain,
        buffer: Buffer,
        access: AccessFlags = AccessFlags.LOCAL_WRITE,
        addr: Optional[int] = None,
        length: Optional[int] = None,
    ) -> Generator["Event", object, MemoryRegionV]:
        """``ibv_reg_mr``: pin pages and install keys (control plane)."""
        addr = buffer.addr if addr is None else addr
        length = buffer.length if length is None else length
        validate_registration(buffer, addr, length)
        pin_ns = self.host.mem_model.pin_ns(length)
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS + pin_ns)
        lkey, rkey = self.host.mr_table.next_keys()
        mr = MemoryRegionV(
            pd=pd, buffer=buffer, addr=addr, length=length,
            lkey=lkey, rkey=rkey, access=access,
        )
        pd.mrs.append(mr)
        self.host.mr_table.install(mr)
        return mr

    def dereg_mr(self, mr: MemoryRegionV) -> Generator["Event", object, None]:
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        self.host.mr_table.remove(mr)

    def create_cq(self, depth: int = 4096) -> Generator["Event", object, CompletionQueue]:
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        self._cq_seq += 1
        cq = CompletionQueue(
            self.sim, depth=depth, name=f"h{self.host.host_id}.cq{self._cq_seq}"
        )
        self.host.kernel.attach_cq(cq)
        return cq

    def create_qp(
        self,
        pd: ProtectionDomain,
        transport: Transport,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        sq_depth: Optional[int] = None,
        rq_depth: Optional[int] = None,
        max_inline: Optional[int] = None,
    ) -> Generator["Event", object, QueuePair]:
        nicp = self.host.nic.profile
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        qp = QueuePair(
            pd=pd,
            transport=transport,
            send_cq=send_cq,
            recv_cq=recv_cq,
            qpn=self.host.nic.next_qpn(),
            sq_depth=sq_depth if sq_depth is not None else nicp.sq_depth,
            rq_depth=rq_depth if rq_depth is not None else nicp.rq_depth,
            max_inline=max_inline if max_inline is not None else nicp.inline_threshold,
        )
        pd.qps.append(qp)
        self.host.nic.register_qp(qp)
        qp.modify(QPState.INIT)
        return qp

    def connect_qp(
        self, qp: QueuePair, remote: tuple[int, int]
    ) -> Generator["Event", object, None]:
        """Bring an RC QP to RTS against ``remote`` (two modify_qp ioctls)."""
        if qp.transport is not Transport.RC:
            raise VerbsError("connect_qp is for RC; UD QPs go straight to RTS")
        if qp.state is QPState.RESET:
            # Reconnect after a reset: walk through INIT first.
            yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
            qp.modify(QPState.INIT)
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        qp.modify(QPState.RTR, remote=remote)
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        qp.modify(QPState.RTS)

    def activate_ud_qp(self, qp: QueuePair) -> Generator["Event", object, None]:
        """Bring a UD QP to RTS (no peer binding)."""
        if qp.transport is not Transport.UD:
            raise VerbsError("activate_ud_qp is for UD QPs")
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        qp.modify(QPState.RTR)
        yield from self.core.syscall(IOCTL_SERIALIZE_NS + CTRL_KERNEL_NS)
        qp.modify(QPState.RTS)
