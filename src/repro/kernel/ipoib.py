"""IP-over-InfiniBand: the socket path over the RDMA NIC.

IPoIB is the paper's comparison point for fig. 6: it rides the same
InfiniBand NIC but funnels everything through the kernel socket stack, so
the OS keeps full dataplane control — the *functionality* CoRD wants — at
the cost of copies, per-packet processing and interrupts.

The model: a per-host :class:`IPoIBDevice` registered with the NIC for
``"ip"`` wire messages, and datagram-style :class:`IPoIBSocket`
endpoints (``sendto``/``recvfrom`` with message-preserving reliable
delivery, which is what the MPI layer needs; TCP stream dynamics would add
nothing to the reproduced figures).  Upper layers pace themselves.

Timing per message of S bytes (n = ceil(S / 2044) IPoIB packets):

- sender:   syscall + copy(S) + n * tx_per_packet        (on the app core)
- wire:     bursts of <= 64 KiB through the shared NIC port
- receiver: IRQ (moderated) + serialized softirq n * rx_per_packet,
            then on ``recvfrom``: syscall + copy(S) + wakeup context switch
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import KernelError
from repro.hw.cpu import Core
from repro.kernel.netstack import NetstackProfile, Softirq
from repro.sim.store import Store
from repro.verbs.wr import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

_socket_ids = itertools.count(1)


class IPoIBDevice:
    """The ib0 netdevice of one host."""

    def __init__(self, host: "Host", profile: Optional[NetstackProfile] = None):
        self.host = host
        self.sim: "Simulator" = host.sim
        self.profile = profile or NetstackProfile()
        self.softirq = Softirq(self.sim, host.host_id,
                               rx_queues=self.profile.rx_queues)
        #: (host_id, port) -> bound socket registry is shared cluster-wide;
        #: the builder injects it.
        self.registry: dict[tuple[int, int], "IPoIBSocket"] = {}
        self._sockets: dict[int, "IPoIBSocket"] = {}
        host.nic.ip_handler = self._on_wire_message
        self._rx_name = f"ipoib:h{host.host_id}.rx"

    # -- socket management -------------------------------------------------------

    def socket(self) -> "IPoIBSocket":
        sock = IPoIBSocket(self)
        self._sockets[sock.sock_id] = sock
        return sock

    def bind(self, sock: "IPoIBSocket", port: int) -> None:
        key = (self.host.host_id, port)
        if key in self.registry:
            raise KernelError(f"port {port} already bound on host {self.host.host_id}")
        self.registry[key] = sock

    # -- wire handling ---------------------------------------------------------------

    def _on_wire_message(self, msg: WireMessage) -> None:
        """Called by the NIC rx engine for kind == 'ip' messages."""
        self.sim.spawn(self._rx_path(msg), name=self._rx_name)

    def _rx_path(self, msg: WireMessage) -> Generator["Event", object, None]:
        # IRQ delivery + handler, then serialized softirq work.
        sock_id, seq, seg_idx, nsegs, msg_bytes, data, meta = msg.token  # type: ignore[misc]
        yield (self.host.kernel.irq.delivery_delay_ns()
               + self.host.system.cpu.irq_handler_ns)
        work = self.profile.rx_softirq_ns(msg.length)
        yield from self.softirq.process(work, self.profile.packets(msg.length))
        sock = self._sockets.get(sock_id)
        if sock is None:
            return  # socket closed; drop
        sock._segment_arrived(seq, seg_idx, nsegs, msg_bytes, msg.src_host, data, meta)


class IPoIBSocket:
    """Reliable, message-preserving socket over IPoIB."""

    def __init__(self, device: IPoIBDevice):
        self.device = device
        self.sim = device.sim
        self.sock_id = next(_socket_ids)
        #: Fully reassembled inbound messages: (src_host, nbytes, data).
        self._rx_msgs: Store = Store(self.sim, name=f"sock{self.sock_id}.rx")
        self._partial: dict[int, dict] = {}
        self._seq = itertools.count()
        self._tx_name = f"sock{self.sock_id}.tx"
        self.bytes_sent = 0

    # -- data path ---------------------------------------------------------------------

    def sendto(
        self,
        core: Core,
        dst_host: int,
        dst_port: int,
        nbytes: int,
        meta: object = None,
        data: Optional[bytes] = None,
    ) -> Generator["Event", object, None]:
        """Send one message to a bound socket (blocking until the kernel
        accepted it, i.e. copied)."""
        target = self.device.registry.get((dst_host, dst_port))
        if target is None:
            raise KernelError(f"no socket bound at host {dst_host} port {dst_port}")
        if nbytes < 0:
            raise KernelError(f"negative send size: {nbytes}")
        if data is not None and len(data) != nbytes:
            raise KernelError("payload length mismatch")
        prof = self.device.profile
        host = self.device.host
        # Syscall + protocol work + user->kernel copy, all on the app core.
        kernel_work = prof.tx_kernel_ns(nbytes) + host.mem_model.copy_ns(nbytes)
        yield from core.syscall(kernel_work)
        seq = next(self._seq)
        nsegs = max(1, math.ceil(nbytes / prof.burst_bytes)) if nbytes else 1
        self.sim.spawn(
            self._tx_segments(target, seq, nbytes, nsegs, data, meta),
            name=self._tx_name,
        )
        self.bytes_sent += nbytes

    def _tx_segments(
        self,
        target: "IPoIBSocket",
        seq: int,
        nbytes: int,
        nsegs: int,
        data: Optional[bytes],
        meta: object,
    ) -> Generator["Event", object, None]:
        prof = self.device.profile
        host = self.device.host
        dst_host = target.device.host.host_id
        remaining = nbytes
        for idx in range(nsegs):
            seg = min(prof.burst_bytes, remaining) if nsegs > 1 else nbytes
            remaining -= seg
            seg_data = None
            if data is not None:
                off = idx * prof.burst_bytes
                seg_data = data[off : off + seg]
            wire = WireMessage(
                kind="ip",
                src_host=host.host_id,
                dst_host=dst_host,
                src_qpn=0,
                dst_qpn=0,
                transport="UD",
                psn=0,
                length=seg,
                token=(target.sock_id, (self.sock_id, seq), idx, nsegs, nbytes, seg_data, meta),
                # IPoIB per-packet header tax: 44 B per 2044 B packet.
                header_bytes=prof.packets(seg) * 44,
            )
            yield from host.fabric.transmit(host.host_id, dst_host, wire.wire_bytes, wire)

    def _segment_arrived(
        self,
        seq: int,
        seg_idx: int,
        nsegs: int,
        msg_bytes: int,
        src_host: int,
        data: Optional[bytes],
        meta: object,
    ) -> None:
        # Segments of a message share (sender sock_id, seq) as the
        # reassembly key (seq alone would collide across senders).
        key = (src_host, seq)  # seq is (sender_sock_id, per-sock counter)
        state = self._partial.setdefault(
            key, {"have": 0, "segs": [None] * nsegs, "bytes": msg_bytes, "meta": meta}
        )
        state["have"] += 1
        state["segs"][seg_idx] = data
        if state["have"] == nsegs:
            del self._partial[key]
            payload = None
            if all(s is not None for s in state["segs"]):
                payload = b"".join(state["segs"])  # type: ignore[arg-type]
            self._rx_msgs.put((src_host, msg_bytes, payload, state["meta"]))

    def recvfrom(
        self, core: Core
    ) -> Generator["Event", object, tuple[int, int, Optional[bytes], object]]:
        """Receive one message: (src_host, nbytes, data, meta)."""
        prof = self.device.profile
        host = self.device.host
        # Enter the kernel and block until a message is assembled.
        yield from core.syscall(prof.per_message_ns)
        ready: "Event" = self._rx_msgs.get()
        # A message that was already queued is taken at once; only an
        # empty queue parks the reader.
        item = ready.value if ready.callbacks is None else (yield ready)
        src_host, nbytes, data, meta = item  # type: ignore[misc]
        # Wakeup + kernel->user copy.
        yield from core.run(host.system.cpu.context_switch_ns)
        yield from core.run(host.mem_model.copy_ns(nbytes))
        return src_host, nbytes, data, meta
