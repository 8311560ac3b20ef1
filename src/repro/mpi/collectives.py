"""Collective algorithms over point-to-point.

Textbook algorithms with the usual topology choices:

- barrier: dissemination (log P rounds, works for any P)
- allreduce: recursive doubling for powers of two, otherwise a
  binomial-tree reduce to rank 0 and a binomial-tree broadcast back
- alltoall(v): pairwise exchange (XOR partners for powers of two)

These are the collectives the NPB skeletons call.  When payloads are real
(numpy/bytes), reductions combine element-wise, so tests can verify
numerics.  The ``TAG_*`` offsets keep collective traffic from matching
stray application tags.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator
    from repro.sim.events import Event

TAG_BARRIER = 1 << 20
TAG_BCAST = 2 << 20
TAG_REDUCE = 3 << 20
TAG_ALLREDUCE = 4 << 20
TAG_ALLTOALL = 6 << 20


# -- reduction operators ------------------------------------------------------


def SUM(a, b):
    return a + b if a is not None and b is not None else None


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# -- barrier --------------------------------------------------------------------


def barrier(comm: "Communicator") -> Generator["Event", object, None]:
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    rounds = math.ceil(math.log2(size))
    for k in range(rounds):
        dist = 1 << k
        dest = (rank + dist) % size
        src = (rank - dist) % size
        yield from comm.sendrecv(dest, src, nbytes=0, tag=TAG_BARRIER + k)


# -- allreduce ----------------------------------------------------------------------


def _bcast0(
    comm: "Communicator", nbytes: int, data: object
) -> Generator["Event", object, object]:
    """Binomial-tree broadcast from rank 0; returns the payload everywhere."""
    size, rank = comm.size, comm.rank
    # Receive from the parent unless we are the root.
    if rank != 0:
        mask = 1
        while mask <= rank:
            mask <<= 1
        mask >>= 1
        req = yield from comm.recv(rank - mask, TAG_BCAST)
        data = req.data
    # Forward to children.
    mask = 1
    while mask <= rank:
        mask <<= 1
    while mask < size:
        if rank + mask < size:
            yield from comm.send(rank + mask, nbytes, TAG_BCAST, data)
        mask <<= 1
    return data


def _reduce0(
    comm: "Communicator", nbytes: int, data: object, op
) -> Generator["Event", object, object]:
    """Binomial-tree reduction; the result lands at rank 0 (None elsewhere)."""
    size, rank = comm.size, comm.rank
    acc = data
    mask = 1
    while mask < size:
        if rank & mask:
            yield from comm.send(rank & ~mask, nbytes, TAG_REDUCE, acc)
            return None
        partner = rank | mask
        if partner < size:
            req = yield from comm.recv(partner, TAG_REDUCE)
            acc = op(acc, req.data)
        mask <<= 1
    return acc


def allreduce(
    comm: "Communicator", nbytes: int, data: object = None, op=SUM
) -> Generator["Event", object, object]:
    """Recursive doubling (power-of-two P) or reduce+broadcast fallback."""
    size, rank = comm.size, comm.rank
    acc = data
    if size == 1:
        return acc
    if _is_pow2(size):
        mask = 1
        while mask < size:
            partner = rank ^ mask
            req = yield from comm.sendrecv(partner, partner, nbytes,
                                           TAG_ALLREDUCE + mask, acc)
            acc = op(acc, req.data)
            mask <<= 1
        return acc
    acc = yield from _reduce0(comm, nbytes, acc, op)
    acc = yield from _bcast0(comm, nbytes, acc)
    return acc


# -- all-to-all ----------------------------------------------------------------------


def alltoall(
    comm: "Communicator", nbytes_per_peer: int, data_per_peer: Optional[list] = None
) -> Generator["Event", object, list]:
    """Pairwise-exchange alltoall; returns received blocks indexed by source."""
    size, rank = comm.size, comm.rank
    if data_per_peer is not None and len(data_per_peer) != size:
        raise MPIError("data_per_peer must have one entry per rank")
    out: list = [None] * size
    out[rank] = data_per_peer[rank] if data_per_peer else None
    for step in range(1, size):
        if _is_pow2(size):
            partner = rank ^ step
        else:
            partner = (rank + step) % size
        sdata = data_per_peer[partner] if data_per_peer else None
        req = yield from comm.sendrecv(
            partner,
            partner if _is_pow2(size) else (rank - step) % size,
            nbytes_per_peer,
            TAG_ALLTOALL + step,
            sdata,
        )
        out[req.source] = req.data
    return out


def alltoallv(
    comm: "Communicator", send_counts: Sequence[int], data_per_peer: Optional[list] = None
) -> Generator["Event", object, list]:
    """Pairwise alltoall with per-destination sizes (the IS workhorse)."""
    size, rank = comm.size, comm.rank
    if len(send_counts) != size:
        raise MPIError(f"send_counts must have {size} entries")
    out: list = [None] * size
    out[rank] = data_per_peer[rank] if data_per_peer else None
    for step in range(1, size):
        if _is_pow2(size):
            partner = rank ^ step
            src = partner
        else:
            partner = (rank + step) % size
            src = (rank - step) % size
        sdata = data_per_peer[partner] if data_per_peer else None
        rreq = yield from comm.irecv(src, TAG_ALLTOALL + step)
        sreq = yield from comm.isend(partner, int(send_counts[partner]),
                                     TAG_ALLTOALL + step, sdata)
        yield from comm.waitall([sreq, rreq])
        out[rreq.source] = rreq.data
    return out
