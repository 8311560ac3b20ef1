"""Work requests, completions, opcodes and access flags.

These are the wire- and queue-level value types shared by the verbs layer
and the NIC engine.  They deliberately mirror ``ibv_send_wr`` /
``ibv_recv_wr`` / ``ibv_wc`` from the real API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import VerbsError


class Psn:
    """24-bit packet-sequence-number arithmetic (IBTA §9.7.2).

    Real PSNs live in a 24-bit circular space: assignment wraps at
    ``2**24`` and ordering is serial-number arithmetic with a half-window
    of ``2**23`` — ``b`` is "after" ``a`` when the forward distance
    ``(b - a) & MASK`` is less than half the space.  Every piece of PSN
    math in the tree must route through these helpers (the PROTO002 lint
    rule enforces it); raw ``+``/``-`` silently diverges from a wrapped
    responder the moment a long-lived QP crosses the wrap point.

    The helpers are plain ``@staticmethod``s on a namespace class (not
    instances) so the per-message paths pay one attribute lookup and one
    ``&``, nothing more.
    """

    BITS = 24
    #: The PSN space modulus mask, ``2**24 - 1``.
    MASK = (1 << BITS) - 1
    #: Serial-arithmetic half window: forward distances below this mean
    #: "ahead", at-or-above mean "behind" (a duplicate / very old PSN).
    HALF = 1 << (BITS - 1)

    @staticmethod
    def wrap(value: int) -> int:
        """Project any integer into the 24-bit PSN space."""
        return value & Psn.MASK

    @staticmethod
    def next(psn: int) -> int:
        """The PSN after ``psn`` (wraps ``2**24 - 1 -> 0``)."""
        return (psn + 1) & Psn.MASK

    @staticmethod
    def add(psn: int, n: int) -> int:
        """``psn`` advanced by ``n`` (``n`` may be negative), wrapped."""
        return (psn + n) & Psn.MASK

    @staticmethod
    def delta(psn: int, base: int) -> int:
        """Forward distance from ``base`` to ``psn`` in [0, 2**24).

        Also the circular sort key for "oldest outstanding first": with
        ``base`` = the next-unassigned ``sq_psn``, older in-flight PSNs
        map to smaller deltas even across the wrap point.
        """
        return (psn - base) & Psn.MASK

    @staticmethod
    def cmp(a: int, b: int) -> int:
        """Serial-number compare: -1 if ``a`` is behind ``b``, 0, or +1.

        "Behind" means the forward distance from ``b`` to ``a`` is at
        least half the space — i.e. ``a`` is a duplicate/older PSN from
        the responder's point of view when ``b`` is ``expected_psn``.
        """
        if a == b:
            return 0
        return 1 if (a - b) & Psn.MASK < Psn.HALF else -1


class Opcode(enum.Enum):
    """Send-side operation codes (subset of ``ibv_wr_opcode``).

    The classification flags (``is_send``, ``reads_local_memory``, …) are
    plain member attributes precomputed below — they sit on the NIC's
    per-message path, where property descriptors and tuple membership
    tests showed up in profiles.
    """

    SEND = "send"
    SEND_WITH_IMM = "send_imm"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_WITH_IMM = "rdma_write_imm"
    RDMA_READ = "rdma_read"
    ATOMIC_FETCH_ADD = "atomic_fadd"
    ATOMIC_CMP_SWAP = "atomic_cswap"

    is_write: bool
    is_send: bool
    has_imm: bool
    is_atomic: bool
    #: Does this op consume a receive WQE at the responder?
    consumes_recv_wqe: bool
    #: Does the initiating NIC DMA payload out of local memory?
    reads_local_memory: bool
    #: The :class:`WireMessage` kind this op puts on the wire.
    wire_kind: str


for _op in Opcode:
    _op.is_write = _op in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM)
    _op.is_send = _op in (Opcode.SEND, Opcode.SEND_WITH_IMM)
    _op.has_imm = _op in (Opcode.SEND_WITH_IMM, Opcode.RDMA_WRITE_WITH_IMM)
    _op.is_atomic = _op in (Opcode.ATOMIC_FETCH_ADD, Opcode.ATOMIC_CMP_SWAP)
    _op.consumes_recv_wqe = _op.is_send or _op is Opcode.RDMA_WRITE_WITH_IMM
    _op.reads_local_memory = _op.is_send or _op.is_write
    _op.wire_kind = ("send" if _op.is_send else "write" if _op.is_write
                     else "read_req" if _op is Opcode.RDMA_READ else "atomic")
del _op
#: Bound once for :meth:`SendWR.validate` (runs per post): on CPython 3.11
#: an ``Opcode.RDMA_READ`` lookup goes through ``EnumType.__getattr__``.
_RDMA_READ = Opcode.RDMA_READ


class WCStatus(enum.Enum):
    """Completion status (subset of ``ibv_wc_status``)."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local_length_error"
    LOC_PROT_ERR = "local_protection_error"
    REM_ACCESS_ERR = "remote_access_error"
    REM_INV_REQ_ERR = "remote_invalid_request"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    RETRY_EXC_ERR = "retry_exceeded"
    WR_FLUSH_ERR = "flushed"


_SUCCESS = WCStatus.SUCCESS


class AccessFlags(enum.IntFlag):
    """MR access permissions (subset of ``ibv_access_flags``)."""

    LOCAL_READ = 0x0  # implicit, always allowed
    LOCAL_WRITE = 0x1
    REMOTE_WRITE = 0x2
    REMOTE_READ = 0x4

    @classmethod
    def all_remote(cls) -> "AccessFlags":
        return cls.LOCAL_WRITE | cls.REMOTE_WRITE | cls.REMOTE_READ


@dataclass(slots=True)
class SendWR:
    """A send work request (``ibv_send_wr`` analogue, single SGE).

    ``addr``/``length``/``lkey`` describe the local payload.  One-sided
    operations add ``remote_addr``/``rkey``.  UD sends add ``ah`` (the
    address handle: destination host id and QPN).  ``data`` optionally
    carries real bytes for correctness tests.
    """

    wr_id: int
    opcode: Opcode
    addr: int = 0
    length: int = 0
    lkey: int = 0
    signaled: bool = True
    inline: bool = False
    imm: Optional[int] = None
    remote_addr: int = 0
    rkey: int = 0
    ah: Optional[tuple[int, int]] = None  # (dst_host_id, dst_qpn) for UD
    data: Optional[bytes] = None
    #: Structured sideband for upper layers (e.g. MPI headers).  Travels
    #: with the message and surfaces in the matching CQE; in a physical
    #: system this would be serialized into the payload's first bytes.
    meta: object = None
    #: Atomic operands (8-byte ops): FETCH_ADD uses ``compare_add`` as the
    #: addend; CMP_SWAP compares against ``compare_add`` and stores ``swap``.
    compare_add: int = 0
    swap: int = 0
    #: Telemetry op-span id (None unless tracing is on; see repro.telemetry).
    span: Optional[int] = None

    def validate(self) -> None:
        if self.length < 0:
            raise VerbsError(f"negative WR length: {self.length}")
        if self.opcode.has_imm and self.imm is None:
            raise VerbsError(f"{self.opcode} requires an immediate value")
        if self.opcode is _RDMA_READ and self.inline:
            raise VerbsError("RDMA_READ cannot be inline")
        if self.opcode.is_atomic:
            if self.length != 8:
                raise VerbsError("atomic operations are exactly 8 bytes")
            if self.inline:
                raise VerbsError("atomics cannot be inline")
        if self.data is not None and len(self.data) != self.length:
            raise VerbsError(
                f"payload length {len(self.data)} != WR length {self.length}"
            )


@dataclass(slots=True)
class RecvWR:
    """A receive work request (``ibv_recv_wr`` analogue, single SGE)."""

    wr_id: int
    addr: int = 0
    length: int = 0
    lkey: int = 0


@dataclass(slots=True)
class CQE:
    """A work completion (``ibv_wc`` analogue)."""

    wr_id: int
    status: WCStatus
    opcode: Opcode
    byte_len: int
    qp_num: int
    src_qp: int = 0
    imm: Optional[int] = None
    #: Simulation timestamp at which the NIC wrote this CQE to host memory.
    timestamp: float = 0.0
    #: Delivered payload for correctness tests (recv completions only).
    data: Optional[bytes] = None
    #: Sideband from the sender's WR (recv completions only).
    meta: object = None
    #: Telemetry op-span id of the originating operation (None when off).
    span: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status is _SUCCESS


@dataclass(slots=True)
class WireMessage:
    """One message on the fabric (a transport-level unit, not one packet)."""

    kind: str  # "send" | "write" | "read_req" | "read_resp" | "ack" | "nak_rnr" | "cnp"
    src_host: int
    dst_host: int
    src_qpn: int
    dst_qpn: int
    transport: str  # "RC" | "UD"
    psn: int
    length: int = 0
    imm: Optional[int] = None
    remote_addr: int = 0
    rkey: int = 0
    data: Optional[bytes] = None
    #: For read_resp / ack: the initiator-side WQE being completed.
    token: object = None
    #: Upper-layer sideband copied from the send WR.
    meta: object = None
    #: Atomic request operands: (opcode, compare_add, swap).
    atomic: Optional[tuple] = None
    header_bytes: int = 0
    retries: int = 0
    #: Telemetry op-span id carried across the wire (None when off).
    span: Optional[int] = None
    #: ECN congestion-experienced mark, set by the switch output queue
    #: when congestion control is enabled (see ``hw/profiles.CcProfile``).
    ecn: bool = False

    @property
    def wire_bytes(self) -> int:
        return self.length + self.header_bytes
