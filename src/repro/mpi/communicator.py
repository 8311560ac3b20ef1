"""The MPI communicator: point-to-point API + collectives entry points.

All operations are generators to be driven inside the rank's simulation
process.  ``data`` payloads are optional (numpy arrays or bytes); when
present they are delivered and, for reductions, combined for real — the
collectives tests verify numerical results, not just timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.errors import MPIError
from repro.mpi import collectives as coll
from repro.mpi.engine import ANY, RankEngine
from repro.mpi.requests import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

ANY_SOURCE = ANY
ANY_TAG = ANY


def _payload_nbytes(nbytes: Optional[int], data: object) -> int:
    if nbytes is not None:
        return nbytes  # explicit size wins (payload may be any object)
    if data is None:
        raise MPIError("either nbytes or data must be given")
    if hasattr(data, "nbytes"):
        return int(data.nbytes)  # numpy
    try:
        return len(data)  # bytes-like
    except TypeError:
        raise MPIError(
            f"cannot infer message size from {type(data).__name__}; pass nbytes"
        ) from None


class Communicator:
    """MPI_COMM_WORLD analogue for one rank."""

    def __init__(self, engine: RankEngine, size: int):
        self.engine = engine
        self.size = size

    @property
    def rank(self) -> int:
        return self.engine.rank

    @property
    def sim(self):
        return self.engine.sim

    def _check_rank(self, r: int, what: str) -> None:
        if not 0 <= r < self.size:
            raise MPIError(f"{what} {r} out of range for world size {self.size}")

    # -- point to point ------------------------------------------------------------

    def isend(
        self, dest: int, nbytes: Optional[int] = None, tag: int = 0, data: object = None
    ) -> Generator["Event", object, Request]:
        self._check_rank(dest, "dest")
        n = _payload_nbytes(nbytes, data)
        req = yield from self.engine.isend(dest, n, tag, data)
        return req

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator["Event", object, Request]:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        req = yield from self.engine.irecv(source, tag)
        return req

    def wait(self, req: Request) -> Generator["Event", object, Request]:
        yield from self.engine.progress_until(lambda: req.done)
        return req

    def waitall(self, reqs: Sequence[Request]) -> Generator["Event", object, None]:
        yield from self.engine.progress_until(lambda: all(r.done for r in reqs))

    def send(
        self, dest: int, nbytes: Optional[int] = None, tag: int = 0, data: object = None
    ) -> Generator["Event", object, None]:
        req = yield from self.isend(dest, nbytes, tag, data)
        yield from self.wait(req)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator["Event", object, Request]:
        req = yield from self.irecv(source, tag)
        yield from self.wait(req)
        return req

    def sendrecv(
        self,
        dest: int,
        source: int,
        nbytes: Optional[int] = None,
        tag: int = 0,
        data: object = None,
    ) -> Generator["Event", object, Request]:
        """Concurrent send+recv (the deadlock-free exchange primitive)."""
        rreq = yield from self.irecv(source, tag)
        sreq = yield from self.isend(dest, nbytes, tag, data)
        yield from self.waitall([sreq, rreq])
        return rreq

    # -- compute model ---------------------------------------------------------------

    def compute(self, work_ns: float) -> Generator["Event", object, None]:
        """Burn ``work_ns`` of CPU on this rank (NPB compute phases)."""
        return self.engine.compute(work_ns)

    # -- collectives -----------------------------------------------------------------

    def barrier(self) -> Generator["Event", object, None]:
        yield from coll.barrier(self)

    def bcast(self, root: int, nbytes: Optional[int] = None, data: object = None):
        return coll.bcast(self, root, _payload_nbytes(nbytes, data), data)

    def reduce(self, root: int, nbytes: Optional[int] = None, data: object = None, op=coll.SUM):
        return coll.reduce(self, root, _payload_nbytes(nbytes, data), data, op)

    def allreduce(self, nbytes: Optional[int] = None, data: object = None, op=coll.SUM):
        return coll.allreduce(self, _payload_nbytes(nbytes, data), data, op)

    def allgather(self, nbytes: Optional[int] = None, data: object = None):
        return coll.allgather(self, _payload_nbytes(nbytes, data), data)

    def alltoall(self, nbytes_per_peer: int, data_per_peer: Optional[list] = None):
        return coll.alltoall(self, nbytes_per_peer, data_per_peer)

    def alltoallv(self, send_counts: Sequence[int], data_per_peer: Optional[list] = None):
        return coll.alltoallv(self, send_counts, data_per_peer)

    def gather(self, root: int, nbytes: Optional[int] = None, data: object = None):
        return coll.gather(self, root, _payload_nbytes(nbytes, data), data)

    def scatter(self, root: int, nbytes_per_peer: int, data_per_peer: Optional[list] = None):
        return coll.scatter(self, root, nbytes_per_peer, data_per_peer)

    def reduce_scatter(self, nbytes_per_block: int,
                       data_per_block: Optional[list] = None, op=coll.SUM):
        return coll.reduce_scatter(self, nbytes_per_block, data_per_block, op)

    def scan(self, nbytes: Optional[int] = None, data: object = None, op=coll.SUM):
        return coll.scan(self, _payload_nbytes(nbytes, data), data, op)

    def exscan(self, nbytes: Optional[int] = None, data: object = None, op=coll.SUM):
        return coll.scan(self, _payload_nbytes(nbytes, data), data, op,
                         exclusive=True)

    # -- sub-communicators --------------------------------------------------------

    def _to_global(self, local: int) -> int:
        """Map a rank in this communicator to the world rank."""
        return local

    def split(
        self, color: Optional[int], key: int = 0
    ) -> Generator["Event", object, "Optional[SubCommunicator]"]:
        """``MPI_Comm_split``: collective over this communicator.

        Ranks with equal ``color`` form a sub-communicator ordered by
        ``(key, rank)``; ``color=None`` (MPI_UNDEFINED) returns None.
        Nested splits compose (splitting a sub-communicator works).
        """
        import zlib

        entries = yield from coll.allgather(self, 12, data=(color, key, self.rank))
        if color is None:
            return None
        members = sorted((k, r) for (c, k, r) in entries if c == color)
        global_ranks = [self._to_global(r) for _k, r in members]
        # A deterministic, member-agreed tag space disjoint from the
        # world's (< 2^31) and, with crc32 entropy, from sibling groups'.
        seed = repr((getattr(self, "_tag_base", 0), color, tuple(global_ranks)))
        tag_base = (zlib.crc32(seed.encode()) + 1) << 32
        return SubCommunicator(self, global_ranks, tag_base)


class SubCommunicator(Communicator):
    """A communicator over a subset of the world's ranks.

    Point-to-point ranks and tags are translated onto the engine: local
    rank i is ``ranks[i]`` (world ranks), and tags are offset into a
    per-communicator space so traffic never crosses communicators.
    Caveat (documented): ``ANY_TAG`` receives cannot be confined to the
    sub-communicator's tag space and are rejected.
    """

    def __init__(self, parent: Communicator, ranks: list, tag_base: int):
        super().__init__(parent.engine, len(ranks))
        self.parent = parent
        #: Members as *world* ranks, in local-rank order.
        self.ranks = list(ranks)
        self._tag_base = tag_base

    @property
    def rank(self) -> int:
        return self.ranks.index(self.engine.rank)

    def _to_global(self, local: int) -> int:
        return self.ranks[local]

    def _global(self, local: int) -> int:
        self._check_rank(local, "rank")
        return self.ranks[local]

    def isend(self, dest, nbytes=None, tag=0, data=None):
        n = _payload_nbytes(nbytes, data)
        req = yield from self.engine.isend(self._global(dest), n,
                                           self._tag_base + tag, data)
        return req

    def irecv(self, source=ANY, tag=ANY):
        if tag == ANY:
            raise MPIError(
                "ANY_TAG is not supported on sub-communicators (tag spaces "
                "are offset-encoded); use explicit tags"
            )
        gsource = ANY if source == ANY else self._global(source)
        req = yield from self.engine.irecv(gsource, self._tag_base + tag)
        return req

    def _localize(self, req) -> None:
        """Translate a completed request's envelope to local rank/tag space."""
        if getattr(req, "_localized", False) or not req.done:
            return
        if req.kind == "recv" and req.source >= 0 and req.source in self.ranks:
            req.source = self.ranks.index(req.source)
        if req.tag >= self._tag_base:
            req.tag -= self._tag_base
        req._localized = True

    def wait(self, req):
        yield from self.engine.progress_until(lambda: req.done)
        self._localize(req)
        return req

    def waitall(self, reqs):
        yield from self.engine.progress_until(lambda: all(r.done for r in reqs))
        for req in reqs:
            self._localize(req)
