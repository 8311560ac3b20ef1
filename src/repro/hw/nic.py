"""ConnectX-like NIC engine.

The NIC consumes doorbelled work-queue entries, moves payloads by DMA,
transmits messages on the fabric, enforces RC reliability (PSN ordering,
ACK/NAK, RNR retry) and delivers completions.  All *CPU* costs (building the
WQE, the doorbell write, syscalls in CoRD) are charged by the dataplane
layer before :meth:`Nic.hw_post_send` is reached — the NIC only models
device time, so bypass and CoRD share exactly the same NIC behaviour, as in
the paper ("the drivers ... are largely equivalent", §3).

Timing model (cut-through):

- send engine: ``wqe_process_ns`` occupancy per WQE (message-rate cap),
  then a WQE/payload-fetch pipeline-fill latency (skipped for inline),
  then wire serialization on the fabric (bandwidth cap).
- receive engine: ``rx_process_ns`` occupancy per message, payload DMA
  pipeline-fill latency, CQE DMA write, optional interrupt.
- both engines are FIFO servers with one ``call_later`` record per
  service time.
- RC: responder ACKs each message; the initiator completes on ACK.
  Out-of-PSN-order arrivals are held in the QP reorder buffer.

Per-message work after each engine (initiate, dispatch, execute, ACK,
CQE write) runs as chains of callback stages, not processes: a stage
schedules its successor with ``call_later`` for a delay, hands wire
messages to ``Fabric.send`` with a continuation, and posts completions
with ``_post_cqe(cq, cqe, then, arg)``.  A successor that starts at once
runs inline, at its stage's tail: a heap record is pushed only where
simulated time passes.  The rare error, replay and atomic paths keep a
``call_soon`` record (DESIGN.md "NIC engines").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import HardwareError, MemoryAccessError, VerbsError
from repro.hw.congestion import DcqcnLimiter
from repro.hw.profiles import NicProfile
from repro.verbs.qp import QPState, QueuePair, Transport
from repro.verbs.wr import CQE, Opcode, Psn, RecvWR, SendWR, WCStatus, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.verbs.mr import MrTable

#: Wire header size charged per message (BTH + transport headers).
HEADER_BYTES = 48

#: RNR NAK retry back-off at the initiator.
RNR_DELAY_NS = 12_000.0
#: Fraction of rx engine occupancy an ACK costs relative to a data message.
ACK_RX_FRACTION = 0.25

# Enum members the per-message paths compare against, bound once: on
# CPython 3.11 ``Transport.RC`` goes through ``EnumType.__getattr__`` at
# every evaluation, which blocks attribute specialisation.
_RC = Transport.RC
_UD = Transport.UD
_RTS = QPState.RTS
_ERROR = QPState.ERROR
#: States a responder QP drops requests in.
_NOT_READY = (QPState.RESET, QPState.ERROR, QPState.INIT)
#: States a failed WR leaves its QP in without another transition.
_DEAD = (QPState.ERROR, QPState.RESET)
_SUCCESS = WCStatus.SUCCESS
_LOC_LEN_ERR = WCStatus.LOC_LEN_ERR
_REM_ACCESS_ERR = WCStatus.REM_ACCESS_ERR
_RNR_RETRY_EXC_ERR = WCStatus.RNR_RETRY_EXC_ERR
_RETRY_EXC_ERR = WCStatus.RETRY_EXC_ERR
_FLUSH_ERR = WCStatus.WR_FLUSH_ERR
_SEND = Opcode.SEND
_WRITE_WITH_IMM = Opcode.RDMA_WRITE_WITH_IMM
_READ = Opcode.RDMA_READ
_FETCH_ADD = Opcode.ATOMIC_FETCH_ADD


def _cnp_sent(_arg: object) -> None:
    """A CNP left the port: nothing follows (CNPs are fire-and-forget)."""


class NicCounters:
    """Always-on NIC statistics, read by ``metrics_snapshot`` and the
    benchmark drivers (the one count of each NIC happening)."""

    def __init__(self) -> None:
        self.tx_msgs = 0
        self.tx_bytes = 0
        self.rx_msgs = 0
        self.rx_bytes = 0
        self.acks_sent = 0
        self.rnr_naks_sent = 0
        self.ud_drops = 0
        self.remote_access_errors = 0
        self.retries = 0
        self.ack_timeouts = 0
        self.retransmits = 0
        self.retry_exc_errs = 0
        #: Congestion-notification packets (CC enabled only; see
        #: ``hw/congestion.py``): sent as responder, received as initiator.
        self.cnps_sent = 0
        self.cnps_received = 0

    def snapshot(self) -> dict[str, int]:
        return dict(vars(self))


class Nic:
    """One host's RDMA NIC."""

    def __init__(self, sim: "Simulator", profile: NicProfile, host_id: int, name: str = ""):
        self.sim = sim
        self.profile = profile
        self.host_id = host_id
        self.name = name or f"nic{host_id}"
        self.counters = NicCounters()

        self._qps: dict[int, QueuePair] = {}
        #: ``_qps`` sorted by qpn, for :meth:`_queue_depth_state`.
        self._qps_sorted: list[tuple[int, QueuePair]] = []
        self._qpn_seq = 0x40
        # Engine backlogs; the item in service is never in one.
        self._tx_backlog: deque[tuple] = deque()
        self._rx_backlog: deque[WireMessage] = deque()
        self._tx_busy = self._rx_busy = False
        self._memwatch_name = f"{self.name}.memwatch"
        self._fabric = None  # set by attach()
        #: Congestion-control profile, taken from the fabric at attach();
        #: None costs one branch on the TX and RX paths.
        self.cc = None
        #: Initiator-side DCQCN limiters, one per RC QP, created lazily.
        self._limiters: dict[int, DcqcnLimiter] = {}
        #: Responder-side CNP throttle: (initiator host, qpn) -> last CNP
        #: emission time (at most one CNP per ``cnp_interval_ns`` each).
        self._last_cnp_ns: dict[tuple[int, int], float] = {}
        self.mr_table: Optional["MrTable"] = None  # set by attach()
        #: Metrics scope on the trace (matches Host.name).
        self._scope = f"host{host_id}"
        self._mem_watchers: list[tuple[int, int, object]] = []
        #: Set by the IPoIB device: receives kind == "ip" wire messages.
        self.ip_handler: Optional[Callable[[WireMessage], None]] = None
        sim.register_state_provider(self._queue_depth_state)

    def _queue_depth_state(self) -> tuple:
        """Queue-depth fingerprint for steady-state cycle probes.

        Every *level* (never a monotone counter — those cannot recur) in
        the device that shapes future timing: the tx/rx engine backlogs
        and each QP's in-flight occupancy.  Without these, consecutive
        boundaries while the tx engine drains a doorbelled burst are
        indistinguishable — the backlog is object state, not a pending
        event, so neither the step signature nor the queue signature sees
        it — and a fast-forward probe can prove a period-1 schedule inside
        the quiet stretch between bursts, then jump over bursts whose
        cycles are longer (observed as a per-jump time deficit in
        ``send_bw``).  With the backlog in the component state, boundaries
        at different drain depths hash differently and only the true
        burst super-period can recur.

        CQ depths are deliberately absent: push and poll cost the same at
        any depth, so entries parked in an unreaped CQ (``send_lat``
        never reaps its send CQ) carry no timing influence — and their
        monotone growth would keep any signature from ever recurring.
        """
        return (
            len(self._tx_backlog),
            len(self._rx_backlog),
            tuple([
                (qpn, qp.sq_outstanding, len(qp.rq), len(qp.outstanding),
                 len(qp.reorder), len(qp.retx_retries))
                for qpn, qp in self._qps_sorted
            ]),
        )

    # -- wiring -----------------------------------------------------------------

    def attach(self, fabric, mr_table: "MrTable") -> None:
        """Connect to the fabric and this host's MR table."""
        self._fabric = fabric
        self.mr_table = mr_table
        cc = getattr(fabric, "cc", None)
        if cc is not None and self.cc is None:
            self.cc = cc
            # Registered only when CC is on: a CC-off run's fast-forward
            # signatures and time-shift hooks stay exactly as before.
            self.sim.register_state_provider(self._cc_state)
            self.sim.on_time_shift(self._cc_shift_time)

    def _cc_state(self) -> tuple:
        """Congestion-control levels for fast-forward cycle signatures:
        every limiter's rate machine plus the CNP throttle ages (reported
        relative to now so the fingerprint can recur, clamped to the
        throttle interval beyond which all ages act alike)."""
        now = self.sim.now
        interval = self.cc.cnp_interval_ns if self.cc is not None else 0.0
        return (
            tuple((qpn, lim.state())
                  for qpn, lim in sorted(self._limiters.items())),
            tuple((key, min(now - t, interval))
                  for key, t in sorted(self._last_cnp_ns.items())),
        )

    def _cc_shift_time(self, shift: float) -> None:
        for key in self._last_cnp_ns:
            self._last_cnp_ns[key] += shift

    def deliver(self, msg: WireMessage) -> None:
        """Fabric drops an arriving message into the receive pipeline."""
        trace = self.sim.trace
        if trace.enabled:
            if msg.span is not None:
                trace.emit(self.sim.now, "mark", span=msg.span,
                           stage="rx_arrive", host=self.host_id, comp="nic.rx")
            reg = trace.scope(self._scope)
            reg.histogram("nic.rxq.occupancy").observe(len(self._rx_backlog))
            reg.counter("nic.rx.delivered").inc(msg.wire_bytes, key=msg.kind)
        if self._rx_busy:
            self._rx_backlog.append(msg)
        else:
            self._rx_busy = True
            self._rx_fetch(msg)

    def next_qpn(self) -> int:
        self._qpn_seq += 1
        return self._qpn_seq

    def register_qp(self, qp: QueuePair) -> None:
        self._qps[qp.qpn] = qp
        self._qps_sorted = sorted(self._qps.items())
        mon = self.sim._monitor
        if mon is not None:
            # Wire the QP's own hook (modify() has no sim reference) and
            # let the monitor learn the (host, qpn, cq) identity mapping.
            qp._monitor = mon
            mon.register_qp(self.host_id, qp)

    # -- dataplane entry points (CPU costs already paid by the dataplane) ---------

    def hw_post_send(self, qp: QueuePair, wr: SendWR) -> None:
        """Accept a doorbelled send WQE into the device."""
        qp.check_post_send(wr)
        if qp.transport is _UD and wr.length > self.profile.mtu:
            raise VerbsError(
                f"UD message of {wr.length} B exceeds MTU {self.profile.mtu}"
            )
        # Local protection check at post time (as the real NIC would fail
        # the WQE; we surface it synchronously for debuggability).
        if wr.opcode.reads_local_memory and not wr.inline and wr.length > 0:
            assert self.mr_table is not None
            self.mr_table.check_local(wr.lkey, wr.addr, wr.length, write=False, pd=qp.pd)
        if wr.opcode is _READ or wr.opcode.is_atomic:
            # The fetched / original value is DMA-written locally.
            assert self.mr_table is not None
            self.mr_table.check_local(wr.lkey, wr.addr, wr.length, write=True, pd=qp.pd)
        psn = qp.assign_psn() if qp.transport is _RC else 0
        qp.sq_outstanding += 1
        qp.sends_posted += 1
        trace = self.sim.trace
        if trace.enabled:
            if wr.span is not None:
                trace.emit(self.sim.now, "mark", span=wr.span,
                           stage="doorbell", host=self.host_id, comp="nic.tx")
            reg = trace.scope(self._scope)
            reg.counter("nic.tx.posted").inc(wr.length, key=wr.opcode.value)
            reg.histogram("nic.txq.occupancy").observe(len(self._tx_backlog))
        mon = self.sim._monitor
        if mon is not None:
            mon.on_post_send(qp, wr, psn)
        self._tx_submit((qp, wr, psn, 0))

    def hw_post_recv(self, qp: QueuePair, wr: RecvWR) -> None:
        """Accept a recv WQE into the device-visible receive queue."""
        qp.check_post_recv(wr)
        if wr.length > 0:
            assert self.mr_table is not None
            self.mr_table.check_local(wr.lkey, wr.addr, wr.length, write=True, pd=qp.pd)
        qp.rq.append(wr)
        qp.recvs_posted += 1
        mon = self.sim._monitor
        if mon is not None:
            mon.on_post_recv(qp, wr)

    def hw_post_recv_slots(self, qp: QueuePair, wrs: list[RecvWR]) -> None:
        """Accept recv WQEs on one buffer (an MPI rank's eager slots):
        validated once, unless a monitor sees each post or they overflow."""
        if self.sim._monitor is not None or len(qp.rq) + len(wrs) > qp.rq_depth:
            for wr in wrs:
                self.hw_post_recv(qp, wr)
            return
        self.hw_post_recv(qp, wrs[0])
        qp.rq.extend(wrs[1:])
        qp.recvs_posted += len(wrs) - 1

    # -- engines: one call_later record per service time.  An idle engine
    # starts its item inline; a finishing one takes its backlog head first,
    # then runs the finished item's next stage inline.

    def _tx_submit(self, item: tuple) -> None:
        """Queue one ``(qp, wr, psn, retries)`` WQE."""
        if self._tx_busy:
            self._tx_backlog.append(item)
        else:
            self._tx_busy = True
            self._tx_fetch(item)

    def _tx_fetch(self, item: tuple) -> None:
        """Serial WQE scheduling: caps the message rate.

        Retries pay the same occupancy and fill as first sends.  With CC on,
        the QP's DCQCN bucket paces fetch in-engine, like a rate-limited
        scheduler slot: a heavily cut QP delays its host's other QPs too.
        """
        qp, wr, psn, retries = item
        # A retry already cancelled (ACK won the race, or the QP died) is
        # discarded by ``_initiate``: charging the bucket for it would let a
        # late-ACK timeout storm starve the traffic CC is protecting.
        if self.cc is not None and qp.transport is _RC and not (
                retries and (qp._state is not _RTS
                             or qp.outstanding.get(psn) is not wr)):
            delay = self._limiter(qp).pace(self.sim._now, wr.length + HEADER_BYTES)
            if delay > 0.0:
                trace = self.sim.trace
                if trace.enabled and wr.span is not None:
                    trace.emit(self.sim.now, "mark", span=wr.span,
                               stage="cc_pace", host=self.host_id, comp="nic.tx")
                self.sim.call_later(delay, self._tx_paced, item)
                return
        self.sim.call_later(self.profile.wqe_process_ns, self._tx_done, item)

    def _tx_paced(self, item: tuple) -> None:
        self.sim.call_later(self.profile.wqe_process_ns, self._tx_done, item)

    def _tx_done(self, item: tuple) -> None:
        # Pipelined: the next WQE is scheduled while this one is in flight.
        # It is taken first, so its ``pace()`` precedes a retry's
        # ``on_timeout`` cut in ``_initiate``.
        if self._tx_backlog:
            self._tx_fetch(self._tx_backlog.popleft())
        else:
            self._tx_busy = False
        self._initiate(item)

    def _rx_fetch(self, msg: WireMessage) -> None:
        occupancy = self.profile.rx_process_ns
        if msg.kind in ("ack", "nak_rnr", "cnp"):
            occupancy *= ACK_RX_FRACTION
        self.sim.call_later(occupancy, self._rx_done, msg)

    def _rx_done(self, msg: WireMessage) -> None:
        if self._rx_backlog:
            self._rx_fetch(self._rx_backlog.popleft())
        else:
            self._rx_busy = False
        self._dispatch(msg)

    # -- send path ---------------------------------------------------------------
    #
    # Per-message work is a chain of callback stages (DESIGN.md "NIC
    # engines").  A stage ends by scheduling the next one after a delay
    # (``call_later``) or calling it at once, by handing a message to
    # ``fabric.send`` with its continuation, or by posting a CQE with
    # ``_post_cqe(cq, cqe, then, arg)``.

    def _initiate(self, item: tuple) -> None:
        """Start moving one ``(qp, wr, psn, retries)`` message from local
        memory onto the wire: liveness checks, then the WQE/payload fetch."""
        qp, wr, psn, retries = item
        if retries:
            # This PSN's queued retry is now being serviced (whether or
            # not it still transmits): a later timeout/NAK may queue a new
            # one.  Must happen before any early return below.
            qp.retx_pending.discard(psn)
        state = qp._state
        if state is not _RTS:
            if retries:
                return  # flushed while the retry sat in the TX queue
            # First transmission of a WQE fetched after the QP left RTS:
            # the WR was posted (and counted) before the transition, so
            # the error flush already zeroed sq_outstanding but could not
            # see this entry — it was still in the shared TX backlog, not in
            # ``outstanding``.  Transmitting now would resurrect it on an
            # errored QP (double completion, negative occupancy); instead
            # it is flushed through the CQ like the rest of the SQ (ERROR)
            # or silently reclaimed (RESET), exactly as hardware fetching
            # a WQE on a dead QP would.  Found by `repro verify explore`.
            if state is _ERROR:
                self._post_cqe(qp.send_cq, CQE(
                    wr.wr_id, _FLUSH_ERR, wr.opcode, 0, qp.qpn,
                    0, None, 0.0, None, None, wr.span))
            return
        if retries:
            if qp.outstanding.get(psn) is not wr:
                return  # acked while the retry sat in the TX queue
            if self.cc is not None:
                # A surviving retransmission means real loss — the one
                # congestion signal ECN cannot deliver (a dropped message
                # never reaches the marking queue's far end).  Cut here,
                # past the ACK-race cancellation above: a timeout whose
                # ACK was merely late must not floor the rate.  An ACK
                # landing during the fetch still cancels the retry (in
                # ``_tx_fetched``), but not this cut.
                self._limiter(qp).on_timeout(self.sim._now)
        trace = self.sim.trace
        if trace.enabled and wr.span is not None:
            trace.emit(self.sim.now, "mark", span=wr.span,
                       stage="wqe_fetch", host=self.host_id, comp="nic.tx")
        # Pipeline-fill: WQE fetch unless the CPU wrote it inline with
        # the doorbell (BlueFlame-style), then payload first-burst fetch.
        # Retries pay this again — the device re-fetches state just the same.
        fill = 0.0
        if not wr.inline:
            fill += self.profile.dma_read_lat_ns
            if wr.opcode.reads_local_memory and wr.length > 0:
                fill += self.profile.dma_read_lat_ns
        if fill:
            self.sim.call_later(fill, self._tx_fetched, item)
        else:
            self._tx_fetched(item)

    def _tx_fetched(self, item: tuple) -> None:
        """WQE and payload fetched: build the wire message and send it."""
        qp, wr, psn, retries = item
        if retries:
            if qp.outstanding.get(psn) is not wr:
                # The late ACK landed during the fetch and completed the
                # WR: re-inserting it below would send a duplicate whose
                # re-ACK completes it a second time.
                return
            # Counted and traced here — at actual (re)transmission — not
            # at queue time: a retry cancelled by an ACK that raced it
            # through the TX queue or the fetch never hits the wire and
            # must not inflate the counter or the ``retransmit`` notes
            # (both match real duplicate traffic).
            self.counters.retransmits += 1
            trace = self.sim.trace
            if trace.enabled:
                trace.emit(self.sim.now, "note", span=wr.span,
                           name="retransmit", host=self.host_id, qpn=qp.qpn,
                           psn=psn, retries=retries)

        dst_host, dst_qpn = qp.destination_for(wr)
        opcode = wr.opcode
        data = wr.data
        if data is None and opcode.reads_local_memory and wr.length > 0:
            # Materialize real bytes only if the source buffer holds some.
            assert self.mr_table is not None
            try:
                mr = self.mr_table.check_local(wr.lkey, wr.addr, wr.length, write=False, pd=qp.pd)
                if mr.buffer.data is not None:
                    data = mr.buffer.read(wr.addr - mr.buffer.addr, wr.length)
            except MemoryAccessError:
                if not wr.inline:
                    raise
        kind = opcode.wire_kind
        rc = qp.transport is _RC
        header = HEADER_BYTES if rc else HEADER_BYTES + self.profile.grh_bytes
        # Positional: keyword construction of this record costs about twice
        # as much on CPython 3.11 (field order pinned by the verbs tests).
        msg = WireMessage(
            kind, self.host_id, dst_host, qp.qpn, dst_qpn,
            "RC" if rc else "UD", psn, wr.length, wr.imm, wr.remote_addr,
            wr.rkey, None if kind == "read_req" or kind == "atomic" else data,
            (qp.qpn, psn), wr.meta,
            (opcode, wr.compare_add, wr.swap) if kind == "atomic" else None,
            header, retries, wr.span,
        )
        if rc:
            qp.outstanding[psn] = wr

        wire_payload = header if kind == "read_req" else wr.length + header
        trace = self.sim.trace
        if trace.enabled and wr.span is not None:
            trace.emit(self.sim.now, "mark", span=wr.span,
                       stage="tx_wire", host=self.host_id, comp="wire")
        assert self._fabric is not None
        self._fabric.send(self.host_id, dst_host, wire_payload, msg,
                          self._tx_sent, (qp, wr, psn, retries, wire_payload))

    def _tx_sent(self, ctx: tuple) -> None:
        """The last bit left the port: count it, then arm the ACK timer
        (RC) or complete the send (UD, which is unacknowledged)."""
        qp, wr, psn, retries, wire_payload = ctx
        trace = self.sim.trace
        if trace.enabled and wr.span is not None:
            trace.emit(self.sim.now, "mark", span=wr.span,
                       stage="tx_done", host=self.host_id, comp="wire")
        self.counters.tx_msgs += 1
        self.counters.tx_bytes += wire_payload

        if qp.transport is _RC:
            if getattr(self._fabric, "lossy", False):
                # The fabric is lossless unless a fault layer is attached
                # or a bounded switch buffer can tail-drop, so ACK-timeout
                # timers are armed only then: loss-free runs see no extra
                # heap events and stay bit-identical.
                self._arm_ack_timer(qp, psn, retries)
        else:
            qp.sq_outstanding -= 1
            if wr.signaled:
                self._post_cqe(qp.send_cq, CQE(
                    wr.wr_id, _SUCCESS, wr.opcode, wr.length, qp.qpn,
                    0, None, 0.0, None, None, wr.span))

    # -- receive path -----------------------------------------------------------------

    def _dispatch(self, msg: WireMessage) -> None:
        kind = msg.kind
        if kind == "ip":
            # Socket path: hand off to the kernel's IPoIB device.
            if self.ip_handler is not None:
                self.ip_handler(msg)
            return
        if kind == "cnp":
            self._handle_cnp(msg)
            return
        if kind == "ack" or kind == "nak_rnr":
            self._handle_response(msg)
            return
        if kind == "read_resp" or kind == "atomic_resp":
            self._handle_read_resp(msg)
            return

        qp = self._qps.get(msg.dst_qpn)
        if qp is None or qp._state in _NOT_READY:
            # No such QP: RC would NAK; we count and drop (benchmarks never
            # hit this; tests assert the counter).
            self.counters.remote_access_errors += 1
            return

        rc = msg.transport == "RC"
        if msg.ecn and self.cc is not None and rc:
            # ECN-marked request: notify the initiator (responder half of
            # the DCQCN loop).  Evaluated before PSN ordering on purpose —
            # a reordered or duplicate arrival still crossed the congested
            # queue and still carries a valid congestion signal.
            self._note_ecn(msg)

        if rc:
            self._rx_rc(qp, msg)
            mon = self.sim._monitor
            if mon is not None:
                mon.on_responder_update(qp)
        else:
            self._accept(qp, msg)

    def _rx_rc(self, qp: QueuePair, msg: WireMessage) -> None:
        """RC responder: enforce per-QP PSN acceptance order.

        All PSN comparisons are 24-bit serial arithmetic (:class:`Psn`):
        "ahead" means the forward distance from ``expected_psn`` is below
        half the space, anything else is a duplicate — so the ordering
        logic survives the wrap point a raw ``<``/``>`` would not.
        """
        order = Psn.cmp(msg.psn, qp.expected_psn)
        if order > 0:
            qp.reorder[msg.psn] = msg
            return
        if order < 0:
            # Duplicate (retry of a message whose response was lost);
            # answer again without re-executing side effects.
            if msg.kind in ("send", "write"):
                self._send_ack((qp, msg, "ack", _SUCCESS))
            elif msg.kind == "read_req":
                # Reads are idempotent: just serve the data again.
                self.sim.call_soon(self._exec_read_req, (qp, msg))
            elif msg.kind == "atomic":
                self._replay_atomic(qp, msg)
            return
        if not self._accept(qp, msg):
            # RNR-NAKed: the PSN stays expected; the retry will redeliver.
            return
        self._advance_expected_psn(qp)
        while qp.expected_psn in qp.reorder:
            held = qp.reorder.pop(qp.expected_psn)
            if not self._accept(qp, held):
                # Put it back; the initiator will retransmit this PSN.
                qp.reorder[qp.expected_psn] = held
                return
            self._advance_expected_psn(qp)

    def _advance_expected_psn(self, qp: QueuePair) -> None:
        """Commit acceptance of the current expected PSN (24-bit wrap).

        The one place the responder's ``expected_psn`` moves; it only ever
        moves forward by one (PROTO102 asserts exactly this at runtime).
        """
        qp.expected_psn = Psn.next(qp.expected_psn)

    def _replay_atomic(self, qp: QueuePair, msg: WireMessage) -> None:
        """Answer a duplicate atomic from the replay cache — never re-execute.

        Atomics are not idempotent, so the RMW ran exactly once, at first
        acceptance; a retransmission whose response was lost gets the
        *cached original value* back (PROTO106).  A duplicate of a PSN
        already evicted from the 64-deep cache gets **no reply at all**:
        the initiator keeps retrying into RETRY_EXC_ERR rather than ever
        seeing a re-executed (wrong) value — correctness over liveness,
        matching real HCAs' bounded resources (IBTA C9-150: the responder
        is only required to replay what its resources still hold).
        """
        cached = qp.atomic_cache.get(msg.psn)
        if cached is not None:
            self.sim.call_soon(self._exec_atomic_resp, (qp, msg, cached))

    def _accept(self, qp: QueuePair, msg: WireMessage) -> bool:
        """Synchronous in-order acceptance of a request at the responder:
        claims queue entries and validates keys, then starts the timed
        execution (DMA + CQE + ACK) as its own stage chain so back-to-back
        messages pipeline as on real hardware.  The chain starts inline;
        error and atomic answers keep a ``call_soon`` record.  Returns
        False when RNR-NAKed."""
        kind = msg.kind
        if kind == "send":
            rwr = self._claim_recv_wqe(qp)
            if rwr is None:
                if msg.transport == "RC":
                    qp.rnr_naks += 1
                    self.counters.rnr_naks_sent += 1
                    self.sim.call_soon(self._send_ack,
                                       (qp, msg, "nak_rnr", _SUCCESS))
                else:
                    self.counters.ud_drops += 1
                return False
            self._exec_send((qp, msg, rwr))
            return True

        if kind == "write":
            assert self.mr_table is not None
            mr = self.mr_table.check_remote(
                msg.rkey, msg.remote_addr, msg.length, write=True, pd=qp.pd
            )
            if mr is None:
                self.counters.remote_access_errors += 1
                self.sim.call_soon(self._send_ack,
                                   (qp, msg, "ack", _REM_ACCESS_ERR))
                return True
            rwr = None
            if msg.imm is not None:
                # WRITE_WITH_IMM consumes a recv WQE.
                rwr = self._claim_recv_wqe(qp)
                if rwr is None:
                    qp.rnr_naks += 1
                    self.counters.rnr_naks_sent += 1
                    self.sim.call_soon(self._send_ack,
                                       (qp, msg, "nak_rnr", _SUCCESS))
                    return False
            self._exec_write((qp, msg, mr, rwr))
            return True

        if kind == "read_req":
            self._exec_read_req((qp, msg))
            return True

        if kind == "atomic":
            # The read-modify-write happens *now*, synchronously, in PSN
            # acceptance order — that is what makes it atomic across
            # concurrent initiators.  Only the response timing is async.
            assert self.mr_table is not None
            mr = self.mr_table.check_remote(msg.rkey, msg.remote_addr, 8, write=True, pd=qp.pd)
            if mr is None:
                self.counters.remote_access_errors += 1
                self.sim.call_soon(self._send_ack,
                                   (qp, msg, "ack", _REM_ACCESS_ERR))
                return True
            offset = msg.remote_addr - mr.buffer.addr
            original = int.from_bytes(mr.buffer.read(offset, 8), "little")
            opcode, compare_add, swap = msg.atomic  # type: ignore[misc]
            if opcode is _FETCH_ADD:
                newval = (original + compare_add) & (2**64 - 1)
            else:  # CMP_SWAP
                newval = swap if original == compare_add else original
            mr.buffer.write(offset, newval.to_bytes(8, "little"))
            # Replay cache so a duplicate (lost-response retry) of this PSN
            # returns the same original value instead of re-executing.
            qp.atomic_cache[msg.psn] = original
            if len(qp.atomic_cache) > 64:
                qp.atomic_cache.pop(next(iter(qp.atomic_cache)))
            self._notify_memory_watchers(msg.remote_addr, 8)
            self.counters.rx_msgs += 1
            self.counters.rx_bytes += msg.wire_bytes
            self.sim.call_soon(self._exec_atomic_resp, (qp, msg, original))
            return True

        raise HardwareError(f"unknown message kind {kind!r}")  # pragma: no cover

    def _claim_recv_wqe(self, qp: QueuePair):
        """Take the next recv WQE from the QP's receive queue."""
        faults = getattr(self._fabric, "faults", None)
        if faults is not None and faults.recv_paused(self.host_id, self.sim._now):
            # Receiver-pause fault: pretend the RQ is empty so RC senders
            # hit the RNR path (and UD traffic is dropped).
            return None
        return qp.rq.popleft() if qp.rq else None

    def _exec_send(self, ctx: tuple) -> None:
        """``(qp, msg, rwr)``: land a SEND in its recv buffer."""
        _qp, msg, rwr = ctx
        trace = self.sim.trace
        if trace.enabled and msg.span is not None:
            trace.emit(self.sim.now, "mark", span=msg.span,
                       stage="rx_exec", host=self.host_id, comp="nic.rx")
        if 0 < msg.length <= rwr.length:
            # Payload DMA pipeline-fill; bandwidth already paid on the wire.
            self.sim.call_later(self.profile.dma_write_lat_ns,
                                self._send_landed, ctx)
        else:
            self._send_landed(ctx)

    def _send_landed(self, ctx: tuple) -> None:
        qp, msg, rwr = ctx
        if msg.length > rwr.length:
            status = _LOC_LEN_ERR
        else:
            status = _SUCCESS
            if msg.length > 0 and msg.data is not None:
                assert self.mr_table is not None
                mr = self.mr_table.check_local(rwr.lkey, rwr.addr, msg.length, write=True, pd=qp.pd)
                mr.buffer.write(rwr.addr - mr.buffer.addr, msg.data)
                self._notify_memory_watchers(rwr.addr, msg.length)
        self.counters.rx_msgs += 1
        self.counters.rx_bytes += msg.wire_bytes
        self._post_cqe(
            qp.recv_cq,
            CQE(rwr.wr_id, status, _SEND, msg.length, qp.qpn, msg.src_qpn,
                msg.imm, 0.0, msg.data, msg.meta, msg.span),
            self._send_ack if msg.transport == "RC" else None,
            (qp, msg, "ack", _SUCCESS),
        )

    def _exec_write(self, ctx: tuple) -> None:
        """``(qp, msg, mr, rwr)``: land an RDMA WRITE in its target MR."""
        msg = ctx[1]
        trace = self.sim.trace
        if trace.enabled and msg.span is not None:
            trace.emit(self.sim.now, "mark", span=msg.span,
                       stage="rx_exec", host=self.host_id, comp="nic.rx")
        if msg.length > 0:
            self.sim.call_later(self.profile.dma_write_lat_ns,
                                self._write_landed, ctx)
        else:
            self._write_landed(ctx)

    def _write_landed(self, ctx: tuple) -> None:
        qp, msg, mr, rwr = ctx
        if msg.length > 0:
            if msg.data is not None:
                mr.buffer.write(msg.remote_addr - mr.buffer.addr, msg.data)
            self._notify_memory_watchers(msg.remote_addr, msg.length)
        self.counters.rx_msgs += 1
        self.counters.rx_bytes += msg.wire_bytes
        ack = (qp, msg, "ack", _SUCCESS)
        if rwr is not None:
            self._post_cqe(
                qp.recv_cq,
                CQE(rwr.wr_id, _SUCCESS, _WRITE_WITH_IMM, msg.length, qp.qpn,
                    msg.src_qpn, msg.imm, 0.0, None, msg.meta, msg.span),
                self._send_ack, ack,
            )
        else:
            self._send_ack(ack)

    def _exec_read_req(self, ctx: tuple) -> None:
        """``(qp, msg)``: serve an RDMA READ from the target MR."""
        qp, msg = ctx
        trace = self.sim.trace
        if trace.enabled and msg.span is not None:
            trace.emit(self.sim.now, "mark", span=msg.span,
                       stage="rx_exec", host=self.host_id, comp="nic.rx")
        assert self.mr_table is not None
        mr = self.mr_table.check_remote(msg.rkey, msg.remote_addr, msg.length,
                                        write=False, pd=qp.pd)
        if mr is None:
            self.counters.remote_access_errors += 1
            self._send_ack((qp, msg, "ack", _REM_ACCESS_ERR))
            return
        if msg.length > 0:
            # Responder-side payload fetch pipeline fill.
            self.sim.call_later(self.profile.dma_read_lat_ns,
                                self._read_fetched, (msg, mr))
        else:
            self._read_fetched((msg, mr))

    def _read_fetched(self, ctx: tuple) -> None:
        msg, mr = ctx
        data: Optional[bytes] = None
        if msg.length > 0 and mr.buffer.data is not None:
            data = mr.buffer.read(msg.remote_addr - mr.buffer.addr, msg.length)
        self._send_response(msg, WireMessage(
            "read_resp", self.host_id, msg.src_host, msg.dst_qpn, msg.src_qpn,
            msg.transport, msg.psn, msg.length, None, 0, 0, data, msg.token,
            None, None, HEADER_BYTES, 0, msg.span,
        ))

    def _exec_atomic_resp(self, ctx: tuple) -> None:
        """``(qp, msg, original)``: return the pre-op value to the initiator."""
        qp, msg, original = ctx
        mon = self.sim._monitor
        if mon is not None:
            # Every response for this (qpn, psn) must carry the same value
            # (PROTO106): first execution and cache replays alike land here.
            mon.on_atomic_response(qp, msg.psn, original)
        self.sim.call_later(self.profile.ack_ns, self._atomic_resp_out, ctx)

    def _atomic_resp_out(self, ctx: tuple) -> None:
        _qp, msg, original = ctx
        self._send_response(msg, WireMessage(
            "atomic_resp", self.host_id, msg.src_host, msg.dst_qpn,
            msg.src_qpn, msg.transport, msg.psn, 8, None, 0, 0,
            original.to_bytes(8, "little"), msg.token, None, None,
            HEADER_BYTES, 0, msg.span,
        ))

    def _send_response(self, request: WireMessage, resp: WireMessage) -> None:
        assert self._fabric is not None
        self._fabric.send(self.host_id, request.src_host, resp.wire_bytes,
                          resp, self._response_sent, resp)

    def _response_sent(self, resp: WireMessage) -> None:
        self.counters.tx_msgs += 1
        self.counters.tx_bytes += resp.wire_bytes

    def _handle_read_resp(self, msg: WireMessage) -> None:
        """READ / atomic response at the initiator."""
        qp = self._qps.get(msg.dst_qpn)
        if qp is None:
            self.counters.remote_access_errors += 1
            return
        _qpn, psn = msg.token  # type: ignore[misc]
        wr = qp.outstanding.pop(psn, None)
        if wr is None:
            return  # stale response after QP reset (or a duplicate reply)
        qp.retx_retries.pop(psn, None)
        qp.retx_epoch.pop(psn, None)
        if msg.length > 0:
            self.sim.call_later(self.profile.dma_write_lat_ns,
                                self._read_resp_landed, (qp, wr, msg))
        else:
            self._read_resp_landed((qp, wr, msg))

    def _read_resp_landed(self, ctx: tuple) -> None:
        qp, wr, msg = ctx
        if msg.length > 0 and msg.data is not None:
            assert self.mr_table is not None
            mr = self.mr_table.check_local(wr.lkey, wr.addr, msg.length, write=True, pd=qp.pd)
            mr.buffer.write(wr.addr - mr.buffer.addr, msg.data)
            self._notify_memory_watchers(wr.addr, msg.length)
        qp.sq_outstanding -= 1
        if wr.signaled:
            self._post_cqe(qp.send_cq, CQE(
                wr.wr_id, _SUCCESS, wr.opcode, msg.length, qp.qpn,
                0, None, 0.0, msg.data, None, wr.span))

    def _handle_response(self, msg: WireMessage) -> None:
        """ACK / RNR-NAK arriving back at the initiator."""
        qp = self._qps.get(msg.dst_qpn)
        if qp is None:
            return
        _qpn, psn = msg.token  # type: ignore[misc]
        wr = qp.outstanding.get(psn)
        if wr is None:
            return
        if msg.kind == "nak_rnr":
            # The initiator-side retry count is authoritative (a NAK's
            # echoed count would reset if the NAK itself were retried).
            retries = qp.retx_retries.get(psn, 0)
            if retries >= qp.rnr_retries:
                qp.outstanding.pop(psn, None)
                qp.retx_retries.pop(psn, None)
                qp.retx_epoch.pop(psn, None)
                qp.sq_outstanding -= 1
                self._post_cqe(qp.send_cq, CQE(
                    wr.wr_id, _RNR_RETRY_EXC_ERR, wr.opcode, wr.length,
                    qp.qpn, 0, None, 0.0, None, None, wr.span),
                    self._error_qp, qp)
                return
            # Invalidate any armed ACK timer right away: the responder has
            # spoken for this attempt, the back-off below owns the retry.
            qp._retx_seq += 1
            qp.retx_epoch[psn] = qp._retx_seq
            qp.retx_retries[psn] = retries + 1
            self.counters.retries += 1
            # Escalating back-off: delay grows with the retry index so
            # repeated RNR NAKs don't hot-loop (first retry unchanged).
            self.sim.call_later(RNR_DELAY_NS * (retries + 1), self._rnr_retry,
                                (qp, wr, psn, retries + 1))
            return
        # Positive ACK.
        status = _REM_ACCESS_ERR if msg.imm == -1 else _SUCCESS
        qp.outstanding.pop(psn, None)
        qp.retx_retries.pop(psn, None)
        qp.retx_epoch.pop(psn, None)
        qp.sq_outstanding -= 1
        if msg.length < 0:  # pragma: no cover - defensive
            raise HardwareError("negative ack length")
        if wr.signaled or status is not _SUCCESS:
            # A remote error ACK is fatal for the QP: once its CQE is
            # written, the QP enters ERROR and flushes the remaining
            # in-flight work, as real RC does.
            self._post_cqe(qp.send_cq, CQE(
                wr.wr_id, status, wr.opcode, wr.length, qp.qpn,
                0, None, 0.0, None, None, wr.span),
                None if status is _SUCCESS else self._error_qp, qp)

    def _rnr_retry(self, item: tuple) -> None:
        self._queue_retransmit(*item)

    def _error_qp(self, qp: QueuePair) -> None:
        """A fatal completion was written: error out the QP (once)."""
        if qp._state not in _DEAD:
            qp.modify(_ERROR)

    # -- RC loss recovery (ACK-timeout retransmission) ---------------------------

    def _arm_ack_timer(self, qp: QueuePair, psn: int, retries: int) -> None:
        """Start the ACK-timeout clock for one in-flight PSN.

        Called after the last bit of an RC request leaves the source port,
        and only when the fabric can drop (fault layer or bounded switch
        buffer — it is lossless otherwise).  Exponential back-off: each
        retransmission doubles the timeout, in integer nanoseconds (no
        float-power drift on simulated time), clamped to the profile's
        ``max_ack_timeout_ns`` — unclamped, retry 7 waited ``128x`` the
        base timeout, turning one congested PSN into ~12.8 ms of silence.
        """
        if qp.outstanding.get(psn) is None:
            return  # already answered (e.g. loopback raced the transmit)
        qp._retx_seq += 1
        epoch = qp._retx_seq
        qp.retx_epoch[psn] = epoch
        delay = int(self.profile.ack_timeout_ns) << retries
        cap = int(self.profile.max_ack_timeout_ns)
        if delay > cap:
            delay = cap
        self.sim.call_later(delay, self._ack_timer_fired, (qp, psn, epoch))

    def _ack_timer_fired(self, token: tuple) -> None:
        """An ACK-timeout expired; retransmit or give up (RETRY_EXC_ERR)."""
        qp, psn, epoch = token
        if qp.retx_epoch.get(psn) != epoch:
            return  # stale: acked, NAKed or re-armed since
        wr = qp.outstanding.get(psn)
        if wr is None or qp._state is not _RTS:
            qp.retx_epoch.pop(psn, None)
            return
        self.counters.ack_timeouts += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "note", span=wr.span,
                       name="ack_timeout", host=self.host_id, qpn=qp.qpn,
                       psn=psn)
        retries = qp.retx_retries.get(psn, 0)
        if retries >= qp.retry_cnt:
            self.counters.retry_exc_errs += 1
            qp.outstanding.pop(psn, None)
            qp.retx_retries.pop(psn, None)
            qp.retx_epoch.pop(psn, None)
            qp.sq_outstanding -= 1
            self.sim.call_soon(self._complete_retry_exhausted, (qp, wr))
            return
        qp.retx_retries[psn] = retries + 1
        self._queue_retransmit(qp, wr, psn, retries + 1)

    def _queue_retransmit(
        self, qp: QueuePair, wr: SendWR, psn: int, retries: int
    ) -> None:
        """Feed a retry back through the normal TX pipeline.

        Retries share the WQE-scheduling engine with first transmissions,
        so they pay processing occupancy and pipeline fill and show up in
        the TX trace/telemetry like any other message.

        At most one retry per PSN sits in the TX backlog at a time
        (``qp.retx_pending``): an RNR NAK racing an ACK timeout used to
        queue *two* retransmissions for the same PSN — both passed
        ``_initiate``'s liveness check and both hit the wire, amplifying
        exactly the congestion that caused the loss.  The counter moves
        to ``_tx_fetched`` for the same reason: it must reflect messages
        actually retransmitted, not retry intents later cancelled.
        """
        if psn in qp.retx_pending:
            return  # a retry for this PSN is already queued
        qp.retx_pending.add(psn)
        qp._retx_seq += 1
        qp.retx_epoch[psn] = qp._retx_seq  # invalidate any armed timer
        mon = self.sim._monitor
        if mon is not None:
            # Checked here rather than at the call sites so any retry path
            # (ACK timeout, RNR NAK, or a future one) is bounded (PROTO105).
            mon.on_retransmit(qp, psn, retries)
        self._tx_submit((qp, wr, psn, retries))

    def _complete_retry_exhausted(self, ctx: tuple) -> None:
        """``(qp, wr)``: retry_cnt exhausted: fail the WR, then error-out
        the QP."""
        qp, wr = ctx
        self._post_cqe(qp.send_cq, CQE(
            wr.wr_id, _RETRY_EXC_ERR, wr.opcode, wr.length, qp.qpn,
            0, None, 0.0, None, None, wr.span),
            self._error_qp, qp)

    def _send_ack(self, ctx: tuple) -> None:
        """``(qp, request, kind, status)``: answer a request with an ACK
        (``imm == -1`` flags a remote error) or an RNR NAK, after the
        ``ack_ns`` turnaround."""
        self.sim.call_later(self.profile.ack_ns, self._ack_out, ctx)

    def _ack_out(self, ctx: tuple) -> None:
        qp, request, kind, status = ctx
        ack = WireMessage(
            kind, self.host_id, request.src_host, request.dst_qpn,
            request.src_qpn, request.transport, request.psn, 0,
            -1 if status is not _SUCCESS else None, 0, 0, None,
            request.token, None, None, HEADER_BYTES, request.retries,
            request.span,
        )
        mon = self.sim._monitor
        if mon is not None:
            mon.on_ack_sent(qp, ack)
        trace = self.sim.trace
        if trace.enabled and request.span is not None:
            trace.emit(self.sim.now, "mark", span=request.span,
                       stage="ack", host=self.host_id, comp="nic.tx")
        assert self._fabric is not None
        self._fabric.send(self.host_id, request.src_host, ack.wire_bytes, ack,
                          self._ack_sent, kind)

    def _ack_sent(self, kind: str) -> None:
        if kind == "ack":
            self.counters.acks_sent += 1

    # -- congestion control (CNP generation + DCQCN rate limiting) ---------------

    def _limiter(self, qp: QueuePair) -> DcqcnLimiter:
        """The QP's DCQCN limiter, created on first use (CC on only)."""
        lim = self._limiters.get(qp.qpn)
        if lim is None:
            lim = DcqcnLimiter(self.sim, self.cc, self.profile.link_bw)
            self._limiters[qp.qpn] = lim
        return lim

    def _note_ecn(self, msg: WireMessage) -> None:
        """Responder half of the loop: an ECN-marked RC request arrived.

        Emits a CNP back to the initiator through the normal TX path,
        throttled to one per ``cnp_interval_ns`` per (initiator host, QP)
        so a marked burst costs one notification, not a CNP storm.
        """
        key = (msg.src_host, msg.src_qpn)
        now = self.sim._now
        last = self._last_cnp_ns.get(key)
        if last is not None and now - last < self.cc.cnp_interval_ns:
            return
        self._last_cnp_ns[key] = now
        self.counters.cnps_sent += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "note", span=msg.span,
                       name="cnp_send", host=self.host_id,
                       dst_host=msg.src_host, qpn=msg.src_qpn, psn=msg.psn)
        self._send_cnp(msg)

    def _send_cnp(self, request: WireMessage) -> None:
        """Build and transmit one CNP (same turnaround cost as an ACK).

        CNPs are unacknowledged and never retransmitted — losing one only
        delays the next rate cut by a CNP interval, as on real fabrics.
        """
        self.sim.call_later(self.profile.ack_ns, self._cnp_out, request)

    def _cnp_out(self, request: WireMessage) -> None:
        cnp = WireMessage(
            "cnp", self.host_id, request.src_host, request.dst_qpn,
            request.src_qpn, request.transport, request.psn, 0, None, 0, 0,
            None, request.token, None, None, HEADER_BYTES,
        )
        assert self._fabric is not None
        self._fabric.send(self.host_id, request.src_host, cnp.wire_bytes, cnp,
                          _cnp_sent)

    def _handle_cnp(self, msg: WireMessage) -> None:
        """Initiator half of the loop: cut the marked QP's rate."""
        if self.cc is None:
            return
        qp = self._qps.get(msg.dst_qpn)
        if qp is None:
            return
        self.counters.cnps_received += 1
        lim = self._limiter(qp)
        lim.on_cnp(self.sim._now)
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "note", span=None,
                       name="cnp_recv", host=self.host_id, qpn=qp.qpn,
                       psn=msg.psn, rate=lim.rate)

    # -- completion + memory watch helpers ---------------------------------------

    def _post_cqe(self, cq, cqe: CQE,
                  then: Optional[Callable[[object], None]] = None,
                  arg: object = None) -> None:
        """Write a CQE to host memory (timed) and push it, then ``then(arg)``."""
        self.sim.call_later(self.profile.dma_write_lat_ns, self._cqe_written,
                            (cq, cqe, then, arg))

    def _cqe_written(self, ctx: tuple) -> None:
        cq, cqe, then, arg = ctx
        trace = self.sim.trace
        if trace.enabled and cqe.span is not None:
            trace.emit(self.sim.now, "mark", span=cqe.span,
                       stage="cqe", host=self.host_id, comp="cq")
        cq.push(cqe)
        if trace.enabled:
            trace.scope(self._scope).histogram("cq.depth").observe(len(cq.entries))
        if then is not None:
            then(arg)

    # Memory watchers let applications "poll on memory" (perftest write_lat
    # detects arrival by spinning on the target buffer's last byte).
    def _notify_memory_watchers(self, addr: int, length: int) -> None:
        if not self._mem_watchers:
            return
        remaining = []
        for (lo, hi, event) in self._mem_watchers:
            if lo < addr + length and addr < hi and not event.triggered:
                event.succeed(self.sim.now)
            else:
                remaining.append((lo, hi, event))
        self._mem_watchers = remaining

    def watch_memory(self, addr: int, length: int):
        """Event that fires when the NIC DMA-writes into [addr, addr+len)."""
        event = self.sim.event(name=self._memwatch_name)
        self._mem_watchers.append((addr, addr + length, event))
        return event
