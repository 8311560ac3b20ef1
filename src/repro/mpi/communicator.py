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
    #
    # No wrapper frames: ``isend``/``irecv`` return the engine's generator
    # and the waits loop its progress step.  A request never goes back to
    # pending, so waiting on each in turn ends when all are done.

    def isend(
        self, dest: int, nbytes: Optional[int] = None, tag: int = 0, data: object = None
    ) -> Generator["Event", object, Request]:
        self._check_rank(dest, "dest")
        return self.engine.isend(dest, _payload_nbytes(nbytes, data), tag, data)

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator["Event", object, Request]:
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return self.engine.irecv(source, tag)

    def wait(self, req: Request) -> Generator["Event", object, Request]:
        progress = self.engine.progress
        while not req.done:
            yield from progress()
        return req

    def waitall(self, reqs: Sequence[Request]) -> Generator["Event", object, None]:
        progress = self.engine.progress
        for req in reqs:
            while not req.done:
                yield from progress()

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
        progress = self.engine.progress
        while not sreq.done:
            yield from progress()
        while not rreq.done:
            yield from progress()
        return rreq

    # -- compute model ---------------------------------------------------------------

    def compute(self, work_ns: float) -> Generator["Event", object, None]:
        """Burn ``work_ns`` of CPU on this rank (NPB compute phases)."""
        return self.engine.compute(work_ns)

    # -- collectives -----------------------------------------------------------------

    def barrier(self) -> Generator["Event", object, None]:
        yield from coll.barrier(self)

    def allreduce(self, nbytes: Optional[int] = None, data: object = None, op=coll.SUM):
        return coll.allreduce(self, _payload_nbytes(nbytes, data), data, op)

    def alltoall(self, nbytes_per_peer: int, data_per_peer: Optional[list] = None):
        return coll.alltoall(self, nbytes_per_peer, data_per_peer)

    def alltoallv(self, send_counts: Sequence[int], data_per_peer: Optional[list] = None):
        return coll.alltoallv(self, send_counts, data_per_peer)
