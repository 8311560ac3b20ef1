"""The network fabric connecting host NICs.

Models a non-blocking switch (or a back-to-back cable for two hosts): each
host owns one TX port and one RX delivery path.  A message occupies the
*source* port for its serialization time — so fan-out traffic (alltoall)
correctly shares a single 100/200 Gbit/s port per host — then arrives at the
destination after the propagation delay.  A message is one wire segment,
not one event per packet: the per-packet overhead is charged
arithmetically (``ceil(size / mtu) * per_packet_ns``), which keeps the
bandwidth-vs-size curve exact at O(1) events per message.

**Receiver-side contention** (``rx_contention=``, an
:class:`~repro.hw.profiles.RxContentionProfile`): the source-only model
would give an N→1 incast unbounded aggregate receive bandwidth — every
sender's port runs at full rate and the arrivals just stack up at the
destination.  With a profile attached, each host additionally owns an
**RX ingress port** (a FIFO server mirroring the TX side)
fed by a **switch output queue**: a message pays propagation, is admitted
to the destination port's byte buffer (tail-dropped on overflow when
``buffer_bytes`` is bounded — the RC ACK-timeout machinery retransmits),
then drains through the ingress port at link rate before the NIC sees it.
Fan-in therefore sustains at most one link's bandwidth at the receiver,
and queue occupancy is exported as telemetry plus an ``rx_port``
attribution stage.  ``rx_contention=None`` is a back-to-back cable with
no switch port: the paper's two-node model, where fan-in cannot occur.

Loopback (src == dst) bypasses the wire: the NIC hairpins the message at
PCIe bandwidth with a small fixed latency.  The paper's MPI runs forbid
shared memory, so intra-node traffic really does traverse the NIC.
Hairpin traffic *is* subject to an attached fault layer (scoped to the
host's ``loopback`` link — its own RNG stream), so ``FaultPlan`` loss and
degradation apply to intra-host ranks in multi-host MPI worlds too.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.errors import HardwareError
from repro.hw.profiles import CcProfile, NicProfile, RxContentionProfile
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.nic import Nic
    from repro.sim.engine import Simulator

#: Wire-message kinds eligible for ECN marking: RC requests whose marked
#: arrival makes the responder NIC emit a CNP.  Responses/ACKs are left
#: unmarked — a mark there would reach the wrong end of the control loop.
_ECN_KINDS = frozenset({"send", "write", "read_req", "atomic"})


def _fire(event: Event) -> None:
    """``done`` of :meth:`Fabric.transmit`: run an unscheduled event's
    callbacks inline, resuming the generator parked on it."""
    callbacks = event.callbacks
    event.callbacks = None
    event._value = None
    for callback in callbacks:  # type: ignore[union-attr]
        callback(event)


class Port:
    """A serial FIFO server, like the NIC's engines: one message in
    service (``busy``), the rest waiting in ``backlog``."""

    __slots__ = ("name", "busy", "backlog")

    def __init__(self, name: str):
        self.name = name
        self.busy = False
        self.backlog: deque[tuple] = deque()


class SwitchPort(Port):
    """One switch output port: a byte buffer draining through a serial
    ingress port at link rate.  Created per attached host on a switched
    fabric."""

    __slots__ = ("host_id", "buffer_bytes", "queued_bytes",
                 "peak_queued_bytes", "messages_dropped", "bytes_dropped",
                 "messages_marked")

    def __init__(self, host_id: int, name: str, buffer_bytes: Optional[int]):
        super().__init__(name)
        self.host_id = host_id
        self.buffer_bytes = buffer_bytes
        self.queued_bytes = 0
        self.peak_queued_bytes = 0
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Messages ECN-marked at admission (congestion control only).
        self.messages_marked = 0


class Fabric:
    """Switched fabric (or back-to-back wire) between host NICs."""

    def __init__(
        self,
        sim: "Simulator",
        profile: NicProfile,
        propagation_ns: float,
        loopback_latency_ns: float = 350.0,
        rx_contention: Optional[RxContentionProfile] = None,
        cc: Optional[CcProfile] = None,
        name: str = "fabric",
    ):
        self.sim = sim
        self.profile = profile
        self.propagation_ns = propagation_ns
        self.loopback_latency_ns = loopback_latency_ns
        #: Switch output-queue model (see module docstring); ``None`` is a
        #: back-to-back pair with no switch port.
        if rx_contention is not None and not isinstance(
                rx_contention, RxContentionProfile):
            raise HardwareError(
                "rx_contention must be None or an RxContentionProfile, "
                f"got {rx_contention!r}"
            )
        self.rx_contention = rx_contention
        #: Congestion-control profile: enables WRED/ECN marking at the
        #: switch output queues (and tells attached NICs to run the CNP /
        #: rate-limiter loop).  Requires ``rx_contention`` — marking keys
        #: off switch queue occupancy.
        self.cc = cc
        buffer_bytes = rx_contention.buffer_bytes if rx_contention else None
        if buffer_bytes is not None and buffer_bytes < 1:
            raise HardwareError(
                f"buffer_bytes must be >= 1 (got {buffer_bytes}): a switch "
                "port that admits nothing drops every message"
            )
        if cc is not None and self.rx_contention is None:
            raise HardwareError(
                "congestion control needs a switch output queue (pass an "
                "RxContentionProfile as rx_contention): ECN marking keys "
                "off its occupancy"
            )
        self.name = name
        #: Memo of :meth:`serialization_ns` by size (the profile is frozen).
        self._serialization_ns: dict[int, float] = {}
        self._nics: dict[int, "Nic"] = {}
        self._tx_ports: dict[int, Port] = {}
        self._rx_ports: dict[int, SwitchPort] = {}
        #: Per-destination-port WRED marking streams, created on first
        #: congested admission (dedicated streams: enabling CC never
        #: perturbs any other component's draws).
        self._ecn_rng: dict[int, object] = {}
        #: Delivered traffic only — messages lost on the wire or tail-dropped
        #: at a switch buffer land in the ``*_dropped`` counters instead.
        self.bytes_carried = 0
        self.messages_carried = 0
        self.messages_dropped = 0
        self.bytes_dropped = 0
        #: Loss-site split of ``messages_dropped``: every lost message
        #: lands in exactly one of these (their sum always equals the
        #: total), so tests and postmortems can tell a fault-injected
        #: hairpin loss from a wire loss from a switch-buffer tail drop.
        self.drops_hairpin = 0
        self.drops_wire = 0
        self.drops_rxq = 0
        #: Optional fault layer (see :mod:`repro.faults`).  None keeps the
        #: fabric lossless at the cost of one branch per transmit.
        self.faults = None
        if self.rx_contention is not None:
            # RX backlog is port state, not heap events: expose it to
            # steady-state cycle probes or fast-forward could declare a
            # period while a queue is still draining.
            sim.register_state_provider(self._rx_queue_state)

    @property
    def lossy(self) -> bool:
        """Can this fabric ever drop a message?  True with a fault layer
        attached or a bounded switch buffer — RC senders arm ACK-timeout
        timers exactly when this holds."""
        rx = self.rx_contention
        return self.faults is not None or (
            rx is not None and rx.buffer_bytes is not None
        )

    def inject_faults(self, plan) -> "object":
        """Attach a :class:`~repro.faults.FaultPlan` (or a prebuilt
        injector) to this fabric; returns the active injector."""
        from repro.faults import FaultInjector, FaultPlan

        if isinstance(plan, FaultPlan):
            plan = FaultInjector(self.sim, plan, scope=self.name)
        self.faults = plan
        return plan

    # -- wiring ---------------------------------------------------------------

    def attach_nic(self, nic: "Nic") -> None:
        if nic.host_id in self._nics:
            raise HardwareError(f"host {nic.host_id} already attached to {self.name}")
        self._nics[nic.host_id] = nic
        self._tx_ports[nic.host_id] = Port(f"{self.name}.tx{nic.host_id}")
        rx = self.rx_contention
        if rx is not None:
            self._rx_ports[nic.host_id] = SwitchPort(
                nic.host_id, f"{self.name}.rx{nic.host_id}", rx.buffer_bytes)

    def nic(self, host_id: int) -> "Nic":
        try:
            return self._nics[host_id]
        except KeyError:
            raise HardwareError(f"no host {host_id} on {self.name}") from None

    def rx_port(self, host_id: int) -> SwitchPort:
        """The switch output port feeding ``host_id``."""
        try:
            return self._rx_ports[host_id]
        except KeyError:
            raise HardwareError(
                f"no switch port for host {host_id} on {self.name}"
            ) from None

    def snapshot(self) -> dict[str, object]:
        """Carried and dropped totals, per switch port and fault layer."""
        return {
            "messages_carried": self.messages_carried,
            "bytes_carried": self.bytes_carried,
            "messages_dropped": self.messages_dropped,
            "bytes_dropped": self.bytes_dropped,
            "drops_hairpin": self.drops_hairpin,
            "drops_wire": self.drops_wire,
            "drops_rxq": self.drops_rxq,
            "ports": {
                f"host{hid}": {
                    "queued_bytes": port.queued_bytes,
                    "peak_queued_bytes": port.peak_queued_bytes,
                    "messages_dropped": port.messages_dropped,
                    "bytes_dropped": port.bytes_dropped,
                    "messages_marked": port.messages_marked,
                }
                for hid, port in sorted(self._rx_ports.items())
            },
            "faults": (self.faults.snapshot()
                       if self.faults is not None else None),
        }

    def _rx_queue_state(self) -> tuple:
        return tuple(
            (hid, port.queued_bytes, port.busy, len(port.backlog))
            for hid, port in sorted(self._rx_ports.items())
        )

    # -- congestion marking ---------------------------------------------------

    def _maybe_mark_ecn(self, port: SwitchPort, nbytes: int,
                        payload: object) -> None:
        """WRED/threshold ECN at switch-queue admission (CC enabled only).

        Marking keys off the occupancy the message *finds* (not counting
        itself): always at/above ``kmax_bytes``, linearly up to ``pmax``
        between the thresholds (one draw from the port's dedicated ECN
        stream), never below ``kmin_bytes``.  Only RC request kinds are
        eligible — their responder answers with a CNP.
        """
        if getattr(payload, "kind", None) not in _ECN_KINDS:
            return
        cc = self.cc
        q = port.queued_bytes
        if q < cc.kmin_bytes:
            return
        if q < cc.kmax_bytes:
            rng = self._ecn_rng.get(port.host_id)
            if rng is None:
                rng = self._ecn_rng[port.host_id] = self.sim.rng.stream(
                    f"{self.name}.ecn{port.host_id}"
                )
            frac = (q - cc.kmin_bytes) / (cc.kmax_bytes - cc.kmin_bytes)
            if rng.random() >= cc.pmax * frac:  # type: ignore[attr-defined]
                return
        payload.ecn = True  # type: ignore[attr-defined]
        port.messages_marked += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "note",
                       span=payload.span,  # type: ignore[attr-defined]
                       name="ecn_mark", host=port.host_id,
                       kind=payload.kind,  # type: ignore[attr-defined]
                       size=nbytes, queued=q)

    # -- timing ---------------------------------------------------------------

    def serialization_ns(self, nbytes: int) -> float:
        ns = self._serialization_ns.get(nbytes)
        if ns is None:
            packets = max(1, math.ceil(nbytes / self.profile.mtu)) if nbytes > 0 else 1
            ns = self._serialization_ns[nbytes] = \
                packets * self.profile.per_packet_ns + nbytes / self.profile.link_bw
        return ns

    def _loopback_ns(self, nbytes: int) -> float:
        packets = max(1, math.ceil(nbytes / self.profile.mtu)) if nbytes > 0 else 1
        return packets * self.profile.per_packet_ns + nbytes / self.profile.pcie_bw

    # -- transmission -------------------------------------------------------------
    #
    # One message is a chain of callback stages: a held port's
    # serialization delay (``call_later``), the grant of a busy port (a
    # zero-delay ``call_later`` pushed by the release that frees it, with
    # the key a granted ``Request`` took), and the switch-side delivery,
    # which starts at once, inline at the tail of the record the wire
    # finishes in.  ``transmit`` adapts the chain for generator callers.

    def _note(self, port: Port, op: str) -> None:
        """Report a port claim or release to the runtime sanitizer: a
        claim that finds the port busy is contended (seq order decides
        which claimant queues first); a release never is."""
        self.sim._sanitize.note_touch(  # type: ignore[union-attr]
            port, f"resource {port.name!r}", op,
            contended=op == "request" and port.busy)

    def send(
        self, src_host: int, dst_host: int, nbytes: int, payload: object,
        done: Callable[[object], None], arg: object = None,
    ) -> None:
        """Carry ``payload`` from ``src_host`` to ``dst_host``, then ``done(arg)``.

        ``done`` runs in the record where the last bit leaves the source
        port, also when the message is lost there (the sender carries on
        either way).  Delivery happens ``propagation_ns`` later (plus
        switch output-port queueing on a switched fabric).  FIFO per
        source port preserves per-QP ordering (PSN reordering at the
        receiver covers the rest).
        """
        if nbytes < 0:
            raise HardwareError(f"negative transmit size: {nbytes}")
        dst = self._nics.get(dst_host)
        if dst is None:
            dst = self.nic(dst_host)  # raises: no such host
        if src_host == dst_host:
            # NIC hairpin: PCIe out and back in, no wire — but the same
            # fault hook applies, scoped to the host's loopback link.
            self.sim.call_later(self._loopback_ns(nbytes), self._hairpin_out,
                                (dst, nbytes, payload, done, arg))
            return
        port = self._tx_ports[src_host]
        # The serialization time rides along to the switch port's drain.
        ctx = (src_host, port, dst, nbytes, payload, done, arg,
               self.serialization_ns(nbytes))
        if self.sim._sanitize is not None:
            self._note(port, "request")
        if port.busy:
            port.backlog.append(ctx)
        else:
            port.busy = True
            self.sim.call_later(ctx[7], self._wire_done, ctx)

    def transmit(
        self, src_host: int, dst_host: int, nbytes: int, payload: object
    ) -> Generator["Event", object, None]:
        """Generator form of :meth:`send`: returns when the last bit leaves.

        Parks on an event that is never scheduled; ``send`` fires its
        callbacks inline, so the adapter adds no heap record.
        """
        wire = Event(self.sim)
        self.send(src_host, dst_host, nbytes, payload, _fire, wire)
        yield wire

    def _hairpin_out(self, ctx: tuple) -> None:
        dst, nbytes, payload, done, arg = ctx
        extra = 0.0
        faults = self.faults
        if faults is not None:
            verdict = faults.on_transmit(
                dst.host_id, dst.host_id, self.sim._now,
                getattr(payload, "kind", "raw"), nbytes,
                self.loopback_latency_ns,
            )
            if verdict is None:
                self.messages_dropped += 1
                self.bytes_dropped += nbytes
                self.drops_hairpin += 1
                done(arg)  # dropped in the hairpin: never delivered
                return
            extra = verdict
        self.bytes_carried += nbytes
        self.messages_carried += 1
        self.sim.call_later(self.loopback_latency_ns + extra,
                            dst.deliver, payload)
        done(arg)

    def _serialize(self, ctx: tuple) -> None:
        """The source port was granted: put the whole message on the wire."""
        self.sim.call_later(ctx[7], self._wire_done, ctx)

    def _wire_done(self, ctx: tuple) -> None:
        """The last bit left the source port: free it, then lose the
        message or send it on."""
        src_host, port, dst, nbytes, payload, done, arg, ser = ctx
        if self.sim._sanitize is not None:
            self._note(port, "release")
        if port.backlog:
            self.sim.call_later(0.0, self._serialize, port.backlog.popleft())
        else:
            port.busy = False
        extra = 0.0
        faults = self.faults
        if faults is not None:
            verdict = faults.on_transmit(
                src_host, dst.host_id, self.sim._now,
                getattr(payload, "kind", "raw"), nbytes, self.propagation_ns,
            )
            if verdict is None:
                self.messages_dropped += 1
                self.bytes_dropped += nbytes
                self.drops_wire += 1
                done(arg)  # dropped on the wire: never delivered
                return
            extra = verdict
        if self.rx_contention is None:
            self.bytes_carried += nbytes
            self.messages_carried += 1
            self.sim.call_later(self.propagation_ns + extra, dst.deliver,
                                payload)
            done(arg)
        else:
            # The switch side starts once the sender has carried on, as it
            # would from a record of its own at this instant: propagation,
            # then admission to the switch output queue.
            done(arg)
            delay = self.propagation_ns + extra
            ctx = (dst, nbytes, payload, ser)
            if delay > 0:
                self.sim.call_later(delay, self._rx_admit, ctx)
            else:
                self._rx_admit(ctx)

    def _rx_admit(self, ctx: tuple) -> None:
        """Switch output-queue admission (tail drop on overflow), then a
        drain through the host's RX ingress port at link rate."""
        dst, nbytes, payload, _ser = ctx
        port = self._rx_ports[dst.host_id]
        trace = self.sim.trace
        if (port.buffer_bytes is not None
                and port.queued_bytes + nbytes > port.buffer_bytes):
            # Tail drop at the switch output queue.  The RC ACK-timeout
            # machinery recovers exactly as for a wire-fault drop (the NIC
            # arms timers whenever ``self.lossy`` holds).
            port.messages_dropped += 1
            port.bytes_dropped += nbytes
            self.messages_dropped += 1
            self.bytes_dropped += nbytes
            self.drops_rxq += 1
            if trace.enabled:
                trace.emit(self.sim._now, "note",
                           span=getattr(payload, "span", None),
                           name="rx_drop", host=dst.host_id,
                           kind=getattr(payload, "kind", "raw"),
                           size=nbytes, queued=port.queued_bytes)
            return
        if self.cc is not None:
            self._maybe_mark_ecn(port, nbytes, payload)
        port.queued_bytes += nbytes
        if port.queued_bytes > port.peak_queued_bytes:
            port.peak_queued_bytes = port.queued_bytes
        if trace.enabled:
            trace.scope(f"host{dst.host_id}").histogram(
                "fabric.rxq.occupancy").observe(port.queued_bytes)
            span = getattr(payload, "span", None)
            if span is not None:
                trace.emit(self.sim._now, "mark", span=span,
                           stage="rx_port", host=dst.host_id, comp="wire")
        if self.sim._sanitize is not None:
            self._note(port, "request")
        if port.busy:
            port.backlog.append(ctx)
        else:
            port.busy = True
            self.sim.call_later(ctx[3], self._rx_drained, ctx)

    def _rx_drain(self, ctx: tuple) -> None:
        self.sim.call_later(ctx[3], self._rx_drained, ctx)

    def _rx_drained(self, ctx: tuple) -> None:
        dst, nbytes, payload, _ser = ctx
        port = self._rx_ports[dst.host_id]
        if self.sim._sanitize is not None:
            self._note(port, "release")
        if port.backlog:
            self.sim.call_later(0.0, self._rx_drain, port.backlog.popleft())
        else:
            port.busy = False
        port.queued_bytes -= nbytes
        self.bytes_carried += nbytes
        self.messages_carried += 1
        dst.deliver(payload)
