"""Per-rank communication engines: verbs (bypass/CoRD) and IPoIB sockets.

The verbs engine implements the classic MPI-over-RDMA design:

- **eager** (<= threshold): payload is copied through a bounce buffer and
  SENT two-sided; the receiver copies out on match.  Costs two memcpys.
- **rendezvous** (> threshold): RTS (tiny send) -> CTS carrying the
  receiver's target address/rkey -> RDMA_WRITE_WITH_IMM straight into the
  target region (zero-copy) -> the immediate completes the receive.

Each rank owns one QP per peer (created by the world), one CQ shared by all
its QPs, a registered message region, and a progress engine that is driven
from blocking calls (no async progress thread, matching common MPI builds).

The socket engine sends everything eagerly through the IPoIB stack — the
kernel already copies, so rendezvous would buy nothing; this *is* the cost
structure that makes IPoIB slow in fig. 6.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import MPIError
from repro.mpi.requests import Request
from repro.verbs.wr import Opcode, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.core.dataplane import Dataplane
    from repro.hw.cpu import Core
    from repro.kernel.ipoib import IPoIBSocket
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.mr import MemoryRegionV
    from repro.verbs.qp import QueuePair

#: MPI envelope bytes charged on every wire message.
MPI_HEADER_BYTES = 48
#: Preposted recv WQEs per peer QP (replenished from progress).
RECV_SLOTS = 32

ANY = -1


# -- wire headers (ride the verbs `meta` sideband) ---------------------------


@dataclass
class EagerHdr:
    src_rank: int
    tag: int
    nbytes: int
    payload: object = None


@dataclass
class RtsHdr:
    src_rank: int
    tag: int
    nbytes: int
    msg_id: int


@dataclass
class CtsHdr:
    msg_id: int
    raddr: int
    rkey: int


@dataclass
class FinHdr:
    src_rank: int
    tag: int
    nbytes: int
    msg_id: int
    payload: object = None


@dataclass
class _PostedRecv:
    req: Request
    source: int
    tag: int

    def matches(self, src_rank: int, tag: int) -> bool:
        return (self.source in (ANY, src_rank)) and (self.tag in (ANY, tag))


@dataclass
class _Unexpected:
    src_rank: int
    tag: int
    hdr: object  # EagerHdr | RtsHdr


def match_first(posted: deque, src_rank: int, tag: int) -> Optional[_PostedRecv]:
    """Pop the first posted recv matching (src, tag), preserving MPI order."""
    for i, pr in enumerate(posted):
        if pr.matches(src_rank, tag):
            del posted[i]
            return pr
    return None


class RankEngine:
    """Interface shared by the transports."""

    def __init__(self, sim: "Simulator", rank: int, host: "Host", core: "Core"):
        self.sim = sim
        self.rank = rank
        self.host = host
        self.core = core
        self.posted: deque[_PostedRecv] = deque()
        self.unexpected: deque[_Unexpected] = deque()
        self.bytes_sent = 0
        self.msgs_sent = 0

    # overridables -------------------------------------------------------------

    def isend(self, dest: int, nbytes: int, tag: int, payload: object) -> Generator:
        raise NotImplementedError

    def irecv(self, source: int, tag: int) -> Generator:
        raise NotImplementedError

    def progress_until(self, cond) -> Generator:
        raise NotImplementedError

    def compute(self, work_ns: float) -> Generator:
        """Model a compute phase on this rank's core."""
        return self.core.run(work_ns)


# ---------------------------------------------------------------------------
# Verbs engine (bypass or CoRD, depending on the dataplane injected)
# ---------------------------------------------------------------------------

_msg_ids = itertools.count(1)


class VerbsRankEngine(RankEngine):
    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        host: "Host",
        core: "Core",
        dataplane: "Dataplane",
        cq: "CompletionQueue",
        mr: "MemoryRegionV",
        eager_threshold: int = 8192,
    ):
        super().__init__(sim, rank, host, core)
        self.dataplane = dataplane
        self.cq = cq
        self.mr = mr
        self.buf = mr.buffer
        self.eager_threshold = eager_threshold
        self.qps: dict[int, "QueuePair"] = {}  # peer rank -> QP
        self.qpn_to_peer: dict[int, int] = {}
        self._wr_seq = itertools.count(1)
        #: wr_id -> ("eager"|"fin"|"ctrl", Request|None) for send completions.
        self._send_track: dict[int, tuple[str, Optional[Request]]] = {}
        #: msg_id -> (Request, payload) rendezvous sender state.
        self._rndv_send: dict[int, tuple[Request, int, object, int]] = {}
        #: msg_id -> Request rendezvous receiver state.
        self._rndv_recv: dict[int, Request] = {}
        #: region ring allocator offset for rendezvous targets.
        self._region_off = 0
        self._repost_due: dict[int, int] = {}  # peer -> count

    # -- wiring (done by the world) ----------------------------------------------

    def add_peer(self, peer: int, qp: "QueuePair") -> None:
        self.qps[peer] = qp
        self.qpn_to_peer[qp.qpn] = peer
        # Prepost the eager recv slots (uncharged: part of MPI_Init).
        for _ in range(RECV_SLOTS):
            self.host.nic.hw_post_recv(
                qp, RecvWR(wr_id=self._recv_wr_id(), addr=self.buf.addr,
                           length=self.buf.length, lkey=self.mr.lkey)
            )

    #: Set by the world: callable(rank_a, rank_b) wiring a QP pair lazily.
    _connect = None

    def _qp(self, peer: int) -> "QueuePair":
        qp = self.qps.get(peer)
        if qp is None:
            if self._connect is None:
                raise MPIError(
                    f"rank {self.rank} has no connection to rank {peer} "
                    "and no connector is installed"
                )
            self._connect(self.rank, peer)
            qp = self.qps[peer]
        return qp

    # -- wr_id namespace: even = recv, odd = send ---------------------------------

    def _send_wr_id(self) -> int:
        return next(self._wr_seq) * 2 + 1

    def _recv_wr_id(self) -> int:
        return next(self._wr_seq) * 2

    # -- public ops -----------------------------------------------------------------

    def isend(
        self, dest: int, nbytes: int, tag: int, payload: object = None
    ) -> Generator["Event", object, Request]:
        if dest == self.rank:
            raise MPIError("self-sends are not supported (use sendrecv patterns)")
        req = Request("send", tag=tag)
        qp = self._qp(dest)
        trace = self.sim.trace
        if trace.enabled:
            trace.scope(self.host.name).counter("mpi.protocol").inc(
                nbytes, key="eager" if nbytes <= self.eager_threshold else "rndv")
        if nbytes <= self.eager_threshold:
            # Copy into the bounce buffer (the eager protocol's cost).
            yield from self.core.run(self.host.mem_model.copy_ns(nbytes))
            yield from self._wait_sq(qp)
            wr_id = self._send_wr_id()
            self._send_track[wr_id] = ("eager", req)
            wr = SendWR(
                wr_id=wr_id, opcode=Opcode.SEND, addr=self.buf.addr,
                length=nbytes + MPI_HEADER_BYTES, lkey=self.mr.lkey,
                meta=EagerHdr(self.rank, tag, nbytes, payload),
            )
            yield from self.dataplane.post_send(qp, wr)
        else:
            msg_id = next(_msg_ids)
            self._rndv_send[msg_id] = (req, nbytes, payload, dest)
            yield from self._wait_sq(qp)
            wr_id = self._send_wr_id()
            self._send_track[wr_id] = ("ctrl", None)
            rts = SendWR(
                wr_id=wr_id, opcode=Opcode.SEND, addr=self.buf.addr,
                length=MPI_HEADER_BYTES, lkey=self.mr.lkey,
                meta=RtsHdr(self.rank, tag, nbytes, msg_id),
            )
            yield from self.dataplane.post_send(qp, rts)
        self.bytes_sent += nbytes
        self.msgs_sent += 1
        return req

    def irecv(
        self, source: int = ANY, tag: int = ANY
    ) -> Generator["Event", object, Request]:
        req = Request("recv", source=source, tag=tag)
        # Check the unexpected queue first (MPI ordering: earliest match).
        for i, um in enumerate(self.unexpected):
            pr = _PostedRecv(req, source, tag)
            if pr.matches(um.src_rank, um.tag):
                del self.unexpected[i]
                yield from self._deliver(pr, um.hdr)
                return req
        self.posted.append(_PostedRecv(req, source, tag))
        return req

    # -- matching/delivery -------------------------------------------------------------

    def _deliver(self, pr: _PostedRecv, hdr) -> Generator["Event", object, None]:
        if isinstance(hdr, EagerHdr):
            # Copy out of the bounce buffer into the user buffer.
            yield from self.core.run(self.host.mem_model.copy_ns(hdr.nbytes))
            pr.req.complete(hdr.src_rank, hdr.tag, hdr.nbytes, hdr.payload)
        elif isinstance(hdr, RtsHdr):
            yield from self._send_cts(pr, hdr)
        else:  # pragma: no cover - defensive
            raise MPIError(f"cannot deliver header {hdr!r}")

    def _send_cts(self, pr: _PostedRecv, rts: RtsHdr) -> Generator["Event", object, None]:
        # Carve a target region out of the ring (addresses are synthetic;
        # overlap after wraparound is harmless for timing studies).
        if self._region_off + rts.nbytes > self.buf.length:
            self._region_off = 0
        raddr = self.buf.addr + self._region_off
        self._region_off += min(rts.nbytes, self.buf.length)
        self._rndv_recv[rts.msg_id] = pr.req
        pr.req.source = rts.src_rank
        pr.req.tag = rts.tag
        qp = self._qp(rts.src_rank)
        yield from self._wait_sq(qp)
        wr_id = self._send_wr_id()
        self._send_track[wr_id] = ("ctrl", None)
        cts = SendWR(
            wr_id=wr_id, opcode=Opcode.SEND, addr=self.buf.addr,
            length=MPI_HEADER_BYTES, lkey=self.mr.lkey,
            meta=CtsHdr(rts.msg_id, raddr, self.mr.rkey),
        )
        yield from self.dataplane.post_send(qp, cts)

    def _start_rndv_data(self, cts: CtsHdr) -> Generator["Event", object, None]:
        req, nbytes, payload, dest = self._rndv_send.pop(cts.msg_id)
        qp = self._qp(dest)
        yield from self._wait_sq(qp)
        wr_id = self._send_wr_id()
        self._send_track[wr_id] = ("fin", req)
        wr = SendWR(
            wr_id=wr_id, opcode=Opcode.RDMA_WRITE_WITH_IMM, addr=self.buf.addr,
            length=nbytes, lkey=self.mr.lkey, imm=cts.msg_id,
            remote_addr=cts.raddr, rkey=cts.rkey,
            meta=FinHdr(self.rank, req.tag, nbytes, cts.msg_id, payload),
        )
        yield from self.dataplane.post_send(qp, wr)

    # -- progress ---------------------------------------------------------------------

    def _wait_sq(self, qp: "QueuePair") -> Generator["Event", object, None]:
        """Block (progressing) until the QP's send queue has room."""
        while qp.sq_outstanding >= qp.sq_depth - 1:
            yield from self._progress_once(block=True)

    def _progress_once(self, block: bool = False) -> Generator["Event", object, bool]:
        cqes = yield from self.dataplane.poll_cq(self.cq, 32)
        if not cqes and block:
            ready = self.cq.wait_nonempty()
            if not ready.processed:
                t0 = self.sim.now
                yield from self.core.busy_poll(ready, 0.0)
                self.dataplane._waited(self.sim.now - t0)
            cqes = yield from self.dataplane.poll_cq(self.cq, 32)
        if not cqes:
            return False
        for cqe in cqes:
            if not cqe.ok:
                raise MPIError(f"rank {self.rank}: completion error {cqe.status}")
            if cqe.wr_id & 1:
                yield from self._handle_send_cqe(cqe)
            else:
                yield from self._handle_recv_cqe(cqe)
        # Replenish consumed recv slots, one chained post per peer.
        for peer, count in list(self._repost_due.items()):
            if count:
                qp = self.qps[peer]
                wrs = [
                    RecvWR(wr_id=self._recv_wr_id(), addr=self.buf.addr,
                           length=self.buf.length, lkey=self.mr.lkey)
                    for _ in range(count)
                ]
                self._repost_due[peer] = 0
                yield from self.dataplane.post_recv_many(qp, wrs)
        return True

    def _handle_send_cqe(self, cqe) -> Generator["Event", object, None]:
        kind, req = self._send_track.pop(cqe.wr_id)
        if kind in ("eager", "fin") and req is not None:
            req.complete()
        return
        yield  # pragma: no cover

    def _handle_recv_cqe(self, cqe) -> Generator["Event", object, None]:
        peer = self.qpn_to_peer.get(cqe.qp_num)
        if cqe.opcode is Opcode.RDMA_WRITE_WITH_IMM:
            # Rendezvous FIN: the payload is already in place (zero copy).
            if peer is not None:
                self._repost_due[peer] = self._repost_due.get(peer, 0) + 1
            fin: FinHdr = cqe.meta
            req = self._rndv_recv.pop(fin.msg_id)
            req.complete(fin.src_rank, fin.tag, fin.nbytes, fin.payload)
            return
        if peer is not None:
            self._repost_due[peer] = self._repost_due.get(peer, 0) + 1
        hdr = cqe.meta
        if isinstance(hdr, CtsHdr):
            yield from self._start_rndv_data(hdr)
            return
        if isinstance(hdr, (EagerHdr, RtsHdr)):
            pr = match_first(self.posted, hdr.src_rank, hdr.tag)
            if pr is None:
                self.unexpected.append(_Unexpected(hdr.src_rank, hdr.tag, hdr))
            else:
                yield from self._deliver(pr, hdr)
            return
        raise MPIError(f"rank {self.rank}: unknown header {hdr!r}")

    def progress_until(self, cond) -> Generator["Event", object, None]:
        while not cond():
            yield from self._progress_once(block=True)


# ---------------------------------------------------------------------------
# Socket (IPoIB) engine
# ---------------------------------------------------------------------------


class SocketRankEngine(RankEngine):
    """Everything through the kernel socket stack — the fig. 6 comparator."""

    def __init__(
        self,
        sim: "Simulator",
        rank: int,
        host: "Host",
        core: "Core",
        sock: "IPoIBSocket",
        rank_addr,  # callable rank -> (host_id, port)
    ):
        super().__init__(sim, rank, host, core)
        self.sock = sock
        self.rank_addr = rank_addr

    def isend(
        self, dest: int, nbytes: int, tag: int, payload: object = None
    ) -> Generator["Event", object, Request]:
        req = Request("send")
        host_id, port = self.rank_addr(dest)
        yield from self.sock.sendto(
            self.core, host_id, port, nbytes + MPI_HEADER_BYTES,
            meta=EagerHdr(self.rank, tag, nbytes, payload),
        )
        # Socket semantics: the send completes once the kernel took the data.
        req.complete()
        self.bytes_sent += nbytes
        self.msgs_sent += 1
        return req

    def irecv(
        self, source: int = ANY, tag: int = ANY
    ) -> Generator["Event", object, Request]:
        req = Request("recv", source=source, tag=tag)
        for i, um in enumerate(self.unexpected):
            pr = _PostedRecv(req, source, tag)
            if pr.matches(um.src_rank, um.tag):
                del self.unexpected[i]
                hdr: EagerHdr = um.hdr
                req.complete(hdr.src_rank, hdr.tag, hdr.nbytes, hdr.payload)
                return req
        self.posted.append(_PostedRecv(req, source, tag))
        return req
        yield  # pragma: no cover - keeps the signature a generator

    def progress_until(self, cond) -> Generator["Event", object, None]:
        while not cond():
            _src, _nbytes, _data, meta = yield from self.sock.recvfrom(self.core)
            hdr: EagerHdr = meta
            pr = match_first(self.posted, hdr.src_rank, hdr.tag)
            if pr is None:
                self.unexpected.append(_Unexpected(hdr.src_rank, hdr.tag, hdr))
            else:
                pr.req.complete(hdr.src_rank, hdr.tag, hdr.nbytes, hdr.payload)
