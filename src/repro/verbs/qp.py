"""Queue pairs: RC and UD transports with the IB state machine.

A QP owns a send queue and a receive queue (bounded), references a send and
a receive CQ, and carries transport state: packet sequence numbers, the
RC outstanding-request map (for ack-driven completions), and a responder
reorder buffer that preserves per-QP ordering even when the NIC engine's
internal pipelining would deliver out of order.

State machine (subset of ``ibv_qp_state``): RESET -> INIT -> RTR -> RTS.
Posting to a QP in the wrong state raises, as real verbs would return EINVAL.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import QPStateError, VerbsError
from repro.verbs.wr import Psn, RecvWR, SendWR, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.pd import ProtectionDomain
    from repro.verify.monitors import ProtocolMonitor


class QPState(enum.Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"  # ready to receive
    RTS = "RTS"  # ready to send
    ERROR = "ERROR"


class Transport(enum.Enum):
    RC = "RC"
    UD = "UD"


_VALID_TRANSITIONS = {
    QPState.RESET: {QPState.INIT, QPState.ERROR},
    QPState.INIT: {QPState.RTR, QPState.ERROR, QPState.RESET},
    QPState.RTR: {QPState.RTS, QPState.ERROR, QPState.RESET},
    QPState.RTS: {QPState.ERROR, QPState.RESET},
    QPState.ERROR: {QPState.RESET},
}

# Members bound once for the per-call checks below: on CPython 3.11 each
# ``QPState.RTS`` evaluation goes through ``EnumType.__getattr__``.
_RESET = QPState.RESET
_RTR = QPState.RTR
_RTS = QPState.RTS
_ERROR = QPState.ERROR
_RC = Transport.RC
_UD = Transport.UD


class QueuePair:
    """``ibv_qp`` analogue."""

    def __init__(
        self,
        pd: "ProtectionDomain",
        transport: Transport,
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
        qpn: int,
        sq_depth: int,
        rq_depth: int,
        max_inline: int,
    ) -> None:
        self.pd = pd
        self.transport = transport
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qpn = qpn
        self.sq_depth = sq_depth
        self.rq_depth = rq_depth
        self.max_inline = max_inline
        #: Backing field for :attr:`state`; written only by :meth:`modify`
        #: (PROTO001 lints direct writes, PROTO103 monitors them at runtime).
        self._state = QPState.RESET
        #: Protocol monitor hook (set by ``Nic.register_qp`` when a
        #: :class:`~repro.verify.monitors.ProtocolMonitor` is attached to
        #: the simulator; None costs one branch in :meth:`modify`).
        self._monitor: "ProtocolMonitor | None" = None

        #: RC: connected peer as (host_id, qpn); set at RTR.
        self.remote: Optional[tuple[int, int]] = None

        # Queues. The NIC consumes from these.
        self.rq: deque[RecvWR] = deque()
        #: Send WQEs handed to the NIC but not yet completed (occupancy cap).
        self.sq_outstanding = 0

        # RC transport state.
        self.sq_psn = 0  # next PSN to assign
        self.expected_psn = 0  # next PSN the responder will accept
        self.outstanding: dict[int, SendWR] = {}  # psn -> wqe awaiting ack
        self.reorder: dict[int, WireMessage] = {}  # out-of-order responder hold
        self.rnr_retries = 7
        #: Max transport retries (ACK-timeout retransmissions) per PSN
        #: before the WR completes with RETRY_EXC_ERR (``retry_cnt`` in
        #: ``ibv_qp_attr`` terms).
        self.retry_cnt = 7
        #: Initiator-side retry bookkeeping: psn -> retries so far.  RNR
        #: NAK retries and ACK-timeout retransmissions share this count.
        self.retx_retries: dict[int, int] = {}
        #: psn -> epoch of the currently armed ACK timer.  A fired timer
        #: whose epoch no longer matches is stale (the PSN was acked,
        #: retransmitted or flushed meanwhile) and must do nothing.
        self.retx_epoch: dict[int, int] = {}
        #: Monotone epoch allocator; never reset so PSN reuse after a QP
        #: RESET cannot revive a stale timer.
        self._retx_seq = 0
        #: PSNs with a retransmission queued in the NIC TX store but not
        #: yet fetched — at most one queued retry per PSN (the NIC dedups
        #: against this; membership tests only, never iterated).
        self.retx_pending: set[int] = set()
        #: Responder-side replay cache for atomics: psn -> original value.
        #: A retransmitted atomic whose execution already happened replays
        #: the cached response instead of re-executing (exactly-once).
        self.atomic_cache: dict[int, int] = {}

        # Statistics.
        self.sends_posted = 0
        self.recvs_posted = 0
        self.bytes_sent = 0
        self.rnr_naks = 0

    # -- state machine -------------------------------------------------------------

    @property
    def state(self) -> QPState:
        """Current QP state.  Read-only: all writes go through :meth:`modify`.

        Making this a property (rather than trusting callers) is what
        turns the transition table into an *enforced* contract — code that
        assigned ``qp.state`` directly used to silently skip the legality
        check and the ERROR/RESET flush semantics.
        """
        return self._state

    def modify(self, new_state: QPState, remote: Optional[tuple[int, int]] = None) -> None:
        """Transition the QP (``ibv_modify_qp`` analogue).

        Raises :class:`~repro.errors.QPStateError` on any transition not
        in the ``_VALID_TRANSITIONS`` table — for every caller; there is
        no unchecked path (``state`` is a read-only property).

        Entering ERROR flushes all outstanding work requests: every posted
        recv WQE and every unacknowledged send completes with
        ``WR_FLUSH_ERR``, exactly as the verbs spec requires (consumers
        rely on this to reclaim buffers).  The state is committed *before*
        the flush runs so any observer woken by a flush CQE already sees
        the QP in ERROR (and the PROTO104 monitor can anchor its
        "flush strictly after ERROR" check on the transition).
        """
        if new_state not in _VALID_TRANSITIONS[self._state]:
            raise QPStateError(f"illegal transition {self._state} -> {new_state}")
        if new_state is _RTR and self.transport is _RC:
            if remote is None:
                raise QPStateError("RC RTR transition requires remote (host, qpn)")
            self.remote = remote
        mon = self._monitor
        if mon is not None:
            mon.on_qp_transition(self, self._state, new_state)
        self._state = new_state
        if new_state is _ERROR:
            self._flush_with_errors()
        if new_state is _RESET:
            self._flush()

    def _flush_with_errors(self) -> None:
        """Complete everything in flight with WR_FLUSH_ERR.

        Flush order is the verbs contract order: posted recvs first, then
        sends in SQ (post) order.  The send sort key is the *circular*
        distance from the next-unassigned ``sq_psn`` — ``Psn.delta`` maps
        the oldest in-flight PSN to the smallest key even when the
        outstanding window straddles the 24-bit wrap point, where a raw
        ascending-PSN sort would flush the post-wrap (newest) WRs first.
        """
        from repro.verbs.wr import CQE, Opcode, WCStatus

        for rwr in self.rq:
            self.recv_cq.push(CQE(
                wr_id=rwr.wr_id, status=WCStatus.WR_FLUSH_ERR,
                opcode=Opcode.SEND, byte_len=0, qp_num=self.qpn))
        self.rq.clear()
        base = self.sq_psn
        for _psn, swr in sorted(
            self.outstanding.items(), key=lambda kv: Psn.delta(kv[0], base)
        ):
            self.send_cq.push(CQE(
                wr_id=swr.wr_id, status=WCStatus.WR_FLUSH_ERR,
                opcode=swr.opcode, byte_len=0, qp_num=self.qpn))
        self.outstanding.clear()
        self.reorder.clear()
        self.retx_retries.clear()
        self.retx_epoch.clear()
        self.retx_pending.clear()
        self.sq_outstanding = 0

    def _flush(self) -> None:
        self.rq.clear()
        self.outstanding.clear()
        self.reorder.clear()
        self.retx_retries.clear()
        self.retx_epoch.clear()
        self.retx_pending.clear()
        self.atomic_cache.clear()
        self.sq_outstanding = 0
        self.sq_psn = 0
        self.expected_psn = 0

    # -- posting validation (data structures only; costs live in dataplane) -----

    def check_post_send(self, wr: SendWR) -> None:
        if self.state is not _RTS:
            raise QPStateError(f"post_send on QP {self.qpn} in state {self.state}")
        wr.validate()
        if self.sq_outstanding >= self.sq_depth:
            raise VerbsError(f"QP {self.qpn} send queue full (depth {self.sq_depth})")
        if wr.inline and wr.length > self.max_inline:
            raise VerbsError(
                f"inline length {wr.length} exceeds max_inline {self.max_inline}"
            )
        if self.transport is _UD:
            if not wr.opcode.is_send:
                raise VerbsError(f"UD supports only SEND, got {wr.opcode}")
            if wr.ah is None:
                raise VerbsError("UD send requires an address handle (ah)")
        else:
            if self.remote is None:
                raise QPStateError(f"RC QP {self.qpn} is not connected")

    def check_post_recv(self, wr: RecvWR) -> None:
        if self.state in (_RESET, _ERROR):
            raise QPStateError(f"post_recv on QP {self.qpn} in state {self.state}")
        if len(self.rq) >= self.rq_depth:
            raise VerbsError(f"QP {self.qpn} recv queue full (depth {self.rq_depth})")

    def destination_for(self, wr: SendWR) -> tuple[int, int]:
        """Resolve (host, qpn) the WR targets."""
        if self.transport is _UD:
            assert wr.ah is not None
            return wr.ah
        assert self.remote is not None
        return self.remote

    def assign_psn(self) -> int:
        """Hand out the next send PSN (24-bit wraparound per IBTA)."""
        psn = self.sq_psn
        self.sq_psn = Psn.next(psn)
        return psn

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QP {self.qpn} {self.transport.value} {self.state.value}>"
