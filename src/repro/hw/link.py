"""Point-to-point network link between two NIC ports.

Messages occupy the link for their serialization time (cut-through: the
NIC streams payload from DMA as it transmits), modelled per *message
segment* rather than per packet to keep event counts bounded — per-packet
overheads are charged arithmetically (``ceil(size/mtu) * per_packet_ns``),
which preserves the bandwidth-vs-message-size curve exactly while costing
O(1) events per message.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.errors import HardwareError
from repro.hw.profiles import NicProfile
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Port:
    """One unidirectional endpoint attachment point."""

    def __init__(self, name: str):
        self.name = name
        #: Set by the owning NIC: called with (payload_object) on delivery.
        self.deliver: Optional[Callable[[object], None]] = None


class Link:
    """Full-duplex wire between two ports (two independent directions)."""

    def __init__(
        self,
        sim: "Simulator",
        bandwidth: float,
        propagation_ns: float,
        mtu: int,
        per_packet_ns: float,
        name: str = "link",
    ):
        if bandwidth <= 0:
            raise HardwareError(f"link bandwidth must be positive: {bandwidth}")
        if mtu <= 0:
            raise HardwareError(f"MTU must be positive: {mtu}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.propagation_ns = propagation_ns
        self.mtu = mtu
        self.per_packet_ns = per_packet_ns
        self.name = name
        self.ports = (Port(f"{name}.p0"), Port(f"{name}.p1"))
        # One transmit resource per direction: serialization discipline.
        self._tx = {
            self.ports[0]: Resource(sim, 1, name=f"{name}.tx0"),
            self.ports[1]: Resource(sim, 1, name=f"{name}.tx1"),
        }
        #: Delivered traffic only; wire-dropped messages land in the
        #: ``*_dropped`` counters instead (mirrors ``cluster.Fabric``).
        self.bytes_carried = 0
        self.messages_carried = 0
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Optional fault layer (see :mod:`repro.faults`); ``None`` keeps
        #: the link lossless.  Link endpoints are identified to the
        #: injector by port index (0 or 1).
        self.faults = None

    @property
    def lossy(self) -> bool:
        """Can this link ever drop a message?  (Fault layer attached.)"""
        return self.faults is not None

    @classmethod
    def from_profile(
        cls, sim: "Simulator", profile: NicProfile, propagation_ns: float, name: str = "link"
    ) -> "Link":
        return cls(
            sim,
            bandwidth=profile.link_bw,
            propagation_ns=propagation_ns,
            mtu=profile.mtu,
            per_packet_ns=profile.per_packet_ns,
            name=name,
        )

    def peer(self, port: Port) -> Port:
        """The port on the other end."""
        if port is self.ports[0]:
            return self.ports[1]
        if port is self.ports[1]:
            return self.ports[0]
        raise HardwareError(
            f"{getattr(port, 'name', port)!r} is not attached to {self.name}"
        )

    def serialization_ns(self, nbytes: int) -> float:
        """Wire occupancy for a message of ``nbytes`` (incl. packet tax)."""
        if nbytes < 0:
            raise HardwareError(f"negative message size: {nbytes}")
        packets = max(1, math.ceil(nbytes / self.mtu)) if nbytes > 0 else 1
        return packets * self.per_packet_ns + nbytes / self.bandwidth

    def transmit(
        self, src: Port, nbytes: int, payload: object
    ) -> Generator[Event, object, None]:
        """Send ``payload`` (describing ``nbytes``) from ``src`` to its peer.

        Returns (the generator finishes) when the last bit has left the
        source; delivery at the peer happens ``propagation_ns`` later via
        the peer port's ``deliver`` callback.  FIFO per direction.
        """
        dst = self.peer(src)
        res = self._tx[src]
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            yield self.serialization_ns(nbytes)
        finally:
            res.release(tok)
        # Schedule delivery after propagation without blocking the sender.
        deliver = dst.deliver
        if deliver is None:
            raise HardwareError(f"{dst.name} has no attached receiver")
        faults = self.faults
        if faults is not None:
            src_idx = 0 if src is self.ports[0] else 1
            extra = faults.on_transmit(
                src_idx, 1 - src_idx, self.sim.now,
                getattr(payload, "kind", "raw"), nbytes, self.propagation_ns,
            )
            if extra is None:
                self.messages_dropped += 1
                self.bytes_dropped += nbytes
                return  # dropped on the wire: never delivered
            if extra:
                self.bytes_carried += nbytes
                self.messages_carried += 1
                self.sim.call_later(self.propagation_ns + extra, deliver, payload)
                return
        self.bytes_carried += nbytes
        self.messages_carried += 1
        self.sim.call_later(self.propagation_ns, deliver, payload)
